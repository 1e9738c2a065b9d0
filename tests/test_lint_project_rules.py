"""Fixture tests for the whole-program rules RPR006–RPR009.

Each rule gets true-positive fixtures (the violation fires, with the
evidence the rule promises: RPR006 names the untainted origin, RPR007
carries the full call chain) and false-positive fixtures (the sanctioned
idiom stays clean).  Fixtures are in-memory ``{path: source}`` trees fed
through :func:`repro.lint.lint_project`; virtual paths determine module
names exactly as on disk.
"""

from __future__ import annotations

import re
import textwrap

import pytest

from repro.lint import LintConfig, Violation, lint_project

ENGINE = "src/repro/engine/fixture.py"


def run(
    sources: dict[str, str],
    select: set[str],
    config: LintConfig | None = None,
) -> list[Violation]:
    dedented = {path: textwrap.dedent(src) for path, src in sources.items()}
    return lint_project(dedented, select=select, config=config)


# ---------------------------------------------------------------------------
# RPR006 — seed-flow taint


def test_rpr006_ambient_rng_crossing_into_core_fires() -> None:
    helpers = textwrap.dedent(
        """
        import numpy as np

        from repro.core.mes import choose

        def make_rng():
            return np.random.default_rng()
        """
    )
    # ``drive`` as straight-line code, then inside a ``match`` case: the
    # dataflow walk sees the statements of case bodies too.
    drives = (
        """
        def drive():
            rng = make_rng()
            return choose(rng)
        """,
        """
        def drive(kind):
            match kind:
                case _:
                    rng = make_rng()
                    return choose(rng)
        """,
    )
    for drive in drives:
        violations = run(
            {
                "src/repro/runner/helpers.py": helpers + textwrap.dedent(drive),
                "src/repro/core/mes.py": """
                def choose(rng):
                    return rng.integers(0, 4)
                """,
            },
            select={"RPR006"},
        )
        assert [v.rule_id for v in violations] == ["RPR006"]
        message = violations[0].message
        # The finding names the untainted origin: construct, reason, site.
        assert "numpy.random.default_rng()" in message
        assert "no seed argument" in message
        assert "src/repro/runner/helpers.py:7" in message
        # ... the entry point it reached ...
        assert "repro.core.mes.choose" in message
        # ... and the flow that carried it there.
        assert "constructed in repro.runner.helpers.make_rng" in message
        assert "derive_rng" in message  # the suggested fix


def test_rpr006_hardcoded_seed_is_still_ambient() -> None:
    violations = run(
        {
            "src/repro/runner/helpers.py": """
            import numpy as np

            from repro.simulation.world import step

            def drive():
                rng = np.random.default_rng(42)
                return step(rng)
            """,
            "src/repro/simulation/world.py": """
            def step(rng):
                return rng.random()
            """,
        },
        select={"RPR006"},
    )
    assert [v.rule_id for v in violations] == ["RPR006"]
    assert "hardcoded seed 42" in violations[0].message


def test_rpr006_derived_rng_is_clean() -> None:
    violations = run(
        {
            "src/repro/utils/rng.py": """
            import numpy as np

            def derive_rng(seed, *key):
                return np.random.default_rng(seed)
            """,
            "src/repro/runner/helpers.py": """
            from repro.core.mes import choose
            from repro.utils.rng import derive_rng

            def drive(seed):
                rng = derive_rng(seed, "mes")
                return choose(rng)
            """,
            "src/repro/core/mes.py": """
            def choose(rng):
                return rng.integers(0, 4)
            """,
        },
        select={"RPR006"},
    )
    assert violations == []


def test_rpr006_explicit_seed_parameter_is_clean() -> None:
    violations = run(
        {
            "src/repro/runner/helpers.py": """
            import numpy as np

            from repro.core.mes import choose

            def drive(seed):
                rng = np.random.default_rng(seed)
                return choose(rng)
            """,
            "src/repro/core/mes.py": """
            def choose(rng):
                return rng.integers(0, 4)
            """,
        },
        select={"RPR006"},
    )
    assert violations == []


def test_rpr006_unscoped_layers_are_not_sinks() -> None:
    # tracking/ is not one of the protected layers; ambient RNG flowing
    # there is not this rule's business.
    violations = run(
        {
            "src/repro/runner/helpers.py": """
            import numpy as np

            from repro.tracking.sort import track

            def drive():
                return track(np.random.default_rng())
            """,
            "src/repro/tracking/sort.py": """
            def track(rng):
                return rng.random()
            """,
        },
        select={"RPR006"},
    )
    assert violations == []


# ---------------------------------------------------------------------------
# RPR007 — interprocedural lockset


RPR007_TP = {
    "src/repro/runner/dispatch.py": """
    from repro.engine.work import record

    def job(key):
        return record(key)

    def drive(backend, jobs):
        return [backend.run(job) for _ in jobs]
    """,
    "src/repro/engine/work.py": """
    _RESULTS = {}

    def record(key):
        _RESULTS[key] = key
        return key
    """,
}


def test_rpr007_cross_module_unlocked_write_fires_with_chain() -> None:
    violations = run(RPR007_TP, select={"RPR007"})
    assert [v.rule_id for v in violations] == ["RPR007"]
    violation = violations[0]
    # The finding lands on the mutation, in the module that owns it.
    assert violation.path == "src/repro/engine/work.py"
    assert "_RESULTS" in violation.message
    # ... and carries the full chain from the submission site.
    assert (
        "submitted repro.runner.dispatch.job (src/repro/runner/dispatch.py:8)"
        in violation.message
    )
    assert (
        "repro.engine.work.record (called at src/repro/runner/dispatch.py:5)"
        in violation.message
    )


def test_rpr007_lock_held_by_caller_propagates_down() -> None:
    violations = run(
        {
            "src/repro/runner/dispatch.py": """
            import threading

            from repro.engine.work import record

            _LOCK = threading.Lock()

            def job(key):
                with _LOCK:
                    return record(key)

            def drive(backend, jobs):
                return [backend.run(job) for _ in jobs]
            """,
            "src/repro/engine/work.py": RPR007_TP["src/repro/engine/work.py"],
        },
        select={"RPR007"},
    )
    assert violations == []


def test_rpr007_lock_held_at_mutation_is_clean() -> None:
    violations = run(
        {
            "src/repro/runner/dispatch.py": RPR007_TP[
                "src/repro/runner/dispatch.py"
            ],
            "src/repro/engine/work.py": """
            import threading

            _RESULTS = {}
            _LOCK = threading.Lock()

            def record(key):
                with _LOCK:
                    _RESULTS[key] = key
                return key
            """,
        },
        select={"RPR007"},
    )
    assert violations == []


def test_rpr007_depth_one_same_module_fires() -> None:
    template = """
            _RESULTS = {}

            def job(key):
                BODY

            def drive(backend, jobs):
                return [backend.run(job) for _ in jobs]
            """
    # One write, then two on one line: the first in source order is the
    # one reported.
    for body in ("_RESULTS[key] = key", "_RESULTS[key] = key; _RESULTS[0] = key"):
        violations = run(
            {"src/repro/runner/dispatch.py": template.replace("BODY", body)},
            select={"RPR007"},
        )
        assert [(v.rule_id, v.line, v.col) for v in violations] == [
            ("RPR007", 5, 4)
        ]
        assert "_RESULTS" in violations[0].message


def test_rpr007_self_method_submitted_to_backend_fires() -> None:
    runner = textwrap.dedent(
        """
        class Runner:
            def __init__(self, backend):
                self.backend = backend
                self.results = {}

            def _collect(self, key, value):
                self.results[key] = value
        """
    )
    # ``self._collect`` submitted by the method itself, by defs nested in
    # it (inside an ``if`` block, two levels deep), and reached through a
    # submitted nested def: ``self`` names the enclosing method's instance.
    processes = (
        """
        def process(self, jobs):
            self.backend.run(jobs, self._collect)
        """,
        """
        def process(self, jobs):
            if jobs:
                def go():
                    self.backend.run(jobs, self._collect)
                return go
        """,
        """
        def process(self, jobs):
            def outer():
                def go():
                    self.backend.run(jobs, self._collect)
                return go
            return outer
        """,
        """
        def process(self, jobs):
            def go(job):
                self._collect(job, job)
            self.backend.run(jobs, go)
        """,
    )
    for process in processes:
        source = runner + textwrap.indent(textwrap.dedent(process), "    ")
        violations = run({ENGINE: source}, select={"RPR007"})
        assert [(v.rule_id, v.line) for v in violations] == [("RPR007", 8)]
        assert "self.results" in violations[0].message


def test_rpr007_lambda_submitted_to_pool_fires() -> None:
    violations = run(
        {
            ENGINE: """
            class Runner:
                def __init__(self, pool):
                    self.pool = pool
                    self.log = []

                def go(self, item):
                    self.pool.submit(lambda: self.log.append(item))
            """,
        },
        select={"RPR007"},
    )
    assert [v.rule_id for v in violations] == ["RPR007"]
    # A module-level lambda handed over by module-level code.
    violations = run(
        {
            ENGINE: """
            _LOG = []

            with ThreadPoolExecutor() as pool:
                pool.map(lambda item: _LOG.append(item), ITEMS)
            """,
        },
        select={"RPR007"},
    )
    assert [(v.rule_id, v.line) for v in violations] == [("RPR007", 5)]


def test_rpr007_lock_guarded_write_is_clean() -> None:
    violations = run(
        {
            ENGINE: """
            class Runner:
                def __init__(self, backend, lock):
                    self.backend = backend
                    self._lock = lock
                    self.results = {}

                def process(self, jobs):
                    self.backend.run(jobs, self._collect)

                def _collect(self, key, value):
                    with self._lock:
                        self.results[key] = value
            """,
        },
        select={"RPR007"},
    )
    assert violations == []


def test_rpr007_local_accumulation_is_clean() -> None:
    violations = run(
        {
            ENGINE: """
            def fan_out(pool, jobs):
                def work(job):
                    acc = []
                    acc.append(job)
                    return acc

                return list(pool.map(work, jobs))
            """,
        },
        select={"RPR007"},
    )
    assert violations == []


def test_rpr007_name_local_to_another_function_is_clean() -> None:
    # Names resolve lexically: ``work`` in fan_out is not setup's local def.
    violations = run(
        {
            ENGINE: """
            _TOTALS = {}

            def setup():
                def work(job):
                    _TOTALS[job] = 1
                return work

            def fan_out(executor, jobs):
                return list(executor.map(work, jobs))
            """,
        },
        select={"RPR007"},
    )
    assert violations == []


def test_rpr007_single_threaded_pipeline_run_not_in_scope() -> None:
    # A pipeline's run() drives hooks on the calling thread; receiver
    # name scoping keeps it out of this rule.
    violations = run(
        {
            ENGINE: """
            class Algorithm:
                def __init__(self, pipeline):
                    self.pipeline = pipeline
                    self.history = []

                def iterate(self, frames):
                    for record in self.pipeline.run(frames, self._choose):
                        self.history.append(record)

                def _choose(self, env, t, frame):
                    self.history.append(t)
                    return None, []
            """,
        },
        select={"RPR007"},
    )
    assert violations == []


def test_rpr007_one_hop_helper_call_fires() -> None:
    helpers = textwrap.dedent(
        """
        _TOTALS = {}

        def _bump(key):
            _TOTALS[key] = _TOTALS.get(key, 0) + 1
        """
    )
    # ``work`` submitted from a function, from module-level code, and
    # defined in and submitted from defs nested in try/if blocks.
    dispatches = (
        """
        def work(job):
            _bump(job.key)
            return job

        def fan_out(executor, jobs):
            return list(executor.map(work, jobs))
        """,
        """
        def work(job):
            _bump(job.key)
            return job

        if __name__ == "__main__":
            with ThreadPoolExecutor() as executor:
                executor.map(work, JOBS)
        """,
        """
        try:
            def work(job):
                _bump(job.key)
                return job
        finally:
            pass

        def fan_out(executor, jobs, parallel):
            if parallel:
                def run():
                    return list(executor.map(work, jobs))
                return run()
        """,
    )
    for dispatch in dispatches:
        violations = run(
            {ENGINE: helpers + textwrap.dedent(dispatch)}, select={"RPR007"}
        )
        assert [(v.rule_id, v.line) for v in violations] == [("RPR007", 5)]
        assert "repro.engine.fixture._bump" in violations[0].message


def test_rpr007_two_hop_chain_lists_every_hop() -> None:
    violations = run(
        {
            "src/repro/runner/dispatch.py": """
            from repro.engine.work import outer

            def drive(backend, jobs):
                return [backend.submit(outer) for _ in jobs]
            """,
            "src/repro/engine/work.py": """
            from repro.engine.store import stash

            def outer(key):
                return stash(key)
            """,
            "src/repro/engine/store.py": """
            _STORE = {}

            def stash(key):
                _STORE[key] = key
            """,
        },
        select={"RPR007"},
    )
    assert [v.rule_id for v in violations] == ["RPR007"]
    message = violations[0].message
    assert "submitted repro.engine.work.outer" in message
    assert "repro.engine.store.stash" in message
    assert violations[0].path == "src/repro/engine/store.py"


#: ``run`` submits ``job``, and ``job`` holds a nested def, a nested
#: class or a lambda that appends to the module's ``RESULTS``, or
#: mutates a name it binds itself.  Each case maps to its findings as
#: (line, column, the function the write is in).  A nested def or class
#: is a function of its own, checked only when the call graph reaches
#: it, under the lock its caller holds; a lambda's code counts as the
#: enclosing function's.  A name bound in ``job`` (a parameter, an
#: assignment or loop target, a comprehension variable, an
#: ``except ... as`` name) is local to ``job`` and its lambdas unless
#: declared ``global``; a name a lambda binds is local to that lambda.
RPR007_NESTED_CASES = {
    "def-returned-uncalled": (
        """\
        RESULTS = []

        def job(x):
            def later():
                RESULTS.append(x)
            return later

        def run(backend, items):
            return backend.map(job, items)
        """,
        [],
    ),
    "def-called-under-lock": (
        """\
        import threading

        RESULTS = []
        LOCK = threading.Lock()

        def job(x):
            def later():
                RESULTS.append(x)
            with LOCK:
                later()

        def run(backend, items):
            return backend.map(job, items)
        """,
        [],
    ),
    "def-called-unlocked": (
        """\
        RESULTS = []

        def job(x):
            def later():
                RESULTS.append(x)
            later()

        def run(backend, items):
            return backend.map(job, items)
        """,
        [(5, 8, "repro.engine.work.job.<locals>.later")],
    ),
    "class-returned": (
        """\
        RESULTS = []

        def job(x):
            class Sink:
                def push(self):
                    RESULTS.append(x)
            return Sink

        def run(backend, items):
            return backend.map(job, items)
        """,
        [],
    ),
    "lambda-mapped": (
        """\
        RESULTS = []
        def job(x):
            return list(map(lambda v: RESULTS.append(v), x))
        def run(backend, items):
            return backend.map(job, items)
        """,
        [(3, 30, "repro.engine.work.job")],
    ),
    "lambda-parameter": (
        """\
        def job(rows):
            return list(map(lambda row: row.append(0), rows))
        def run(backend, items):
            return backend.map(job, items)
        """,
        [],
    ),
    "comprehension-variable": (
        """\
        def job(rows):
            return [row.append(0) for row in rows]
        def run(backend, items):
            return backend.map(job, items)
        """,
        [],
    ),
    "tuple-assignment": (
        """\
        def job(x):
            a, b = [], []
            a.append(x)
            return a, b
        def run(backend, items):
            return backend.map(job, items)
        """,
        [],
    ),
    "except-name": (
        """\
        def job(x):
            try:
                return x()
            except Exception as err:
                err.args.append(1)
        def run(backend, items):
            return backend.map(job, items)
        """,
        [],
    ),
    "global-rebound": (
        """\
        RESULTS = []
        def job(x):
            global RESULTS
            RESULTS = RESULTS or []
            RESULTS.append(x)
        def run(backend, items):
            return backend.map(job, items)
        """,
        [(5, 4, "repro.engine.work.job")],
    ),
    "lambda-parameter-shadows-global": (
        """\
        RESULTS = []
        def job(rows):
            RESULTS.append(rows)
            return list(map(lambda RESULTS: RESULTS + 1, rows))
        def run(backend, items):
            return backend.map(job, items)
        """,
        [(3, 4, "repro.engine.work.job")],
    ),
    "nested-lambda-parameter-shadows-global": (
        """\
        RESULTS = []
        def job(rows):
            RESULTS.append(rows)
            return list(map(lambda r: (lambda RESULTS: RESULTS)(r), rows))
        def run(backend, items):
            return backend.map(job, items)
        """,
        [(3, 4, "repro.engine.work.job")],
    ),
    "lambda-appends-global": (
        """\
        RESULTS = []
        def job(rows):
            return list(map(lambda row: RESULTS.append(row), rows))
        def run(backend, items):
            return backend.map(job, items)
        """,
        [(3, 32, "repro.engine.work.job")],
    ),
    "lambda-appends-enclosing-local": (
        """\
        def job(rows):
            acc = []
            return list(map(lambda row: acc.append(row), rows))
        def run(backend, items):
            return backend.map(job, items)
        """,
        [],
    ),
}


@pytest.mark.parametrize("case", sorted(RPR007_NESTED_CASES))
def test_rpr007_nested_scopes_are_their_own_functions(case: str) -> None:
    source, expected = RPR007_NESTED_CASES[case]
    violations = run({"src/repro/engine/work.py": source}, select={"RPR007"})
    found = []
    for violation in violations:
        writer = re.search(r" in (\S+) is reachable", violation.message)
        assert writer is not None
        found.append((violation.line, violation.col, writer.group(1)))
    assert found == expected


# ---------------------------------------------------------------------------
# RPR008 — resource / exception safety


def test_rpr008_unreleased_backend_fires() -> None:
    violations = run(
        {
            "src/repro/runner/exec.py": """
            from repro.engine.backends import make_backend

            def drive(jobs):
                backend = make_backend("thread")
                return [backend.run(j) for j in jobs]
            """,
        },
        select={"RPR008"},
    )
    assert [v.rule_id for v in violations] == ["RPR008"]
    assert "never released" in violations[0].message
    assert "'backend'" in violations[0].message


def test_rpr008_fallthrough_only_release_fires() -> None:
    violations = run(
        {
            "src/repro/runner/exec.py": """
            from repro.engine.backends import make_backend

            def drive(jobs):
                backend = make_backend("thread")
                results = [backend.run(j) for j in jobs]
                backend.close()
                return results
            """,
        },
        select={"RPR008"},
    )
    assert [v.rule_id for v in violations] == ["RPR008"]
    assert "fall-through path" in violations[0].message


def test_rpr008_with_statement_is_clean() -> None:
    violations = run(
        {
            "src/repro/runner/exec.py": """
            from repro.engine.backends import make_backend

            def drive(jobs):
                backend = make_backend("thread")
                with backend:
                    return [backend.run(j) for j in jobs]
            """,
        },
        select={"RPR008"},
    )
    assert violations == []


def test_rpr008_try_finally_release_is_clean() -> None:
    violations = run(
        {
            "src/repro/runner/exec.py": """
            from repro.engine.backends import make_backend

            def drive(jobs):
                backend = make_backend("thread")
                try:
                    return [backend.run(j) for j in jobs]
                finally:
                    backend.close()
            """,
        },
        select={"RPR008"},
    )
    assert violations == []


def test_rpr008_returned_handle_transfers_ownership() -> None:
    violations = run(
        {
            "src/repro/runner/exec.py": """
            from repro.engine.backends import make_backend

            def open_backend(kind):
                backend = make_backend(kind)
                return backend
            """,
        },
        select={"RPR008"},
    )
    assert violations == []


def test_rpr008_detect_outside_try_in_jobresult_fn_fires() -> None:
    violations = run(
        {
            "src/repro/engine/worker.py": """
            from repro.engine.types import JobResult

            def run_job(detector, frame) -> JobResult:
                boxes = detector.detect(frame)
                return JobResult(status="ok", boxes=boxes)
            """,
            "src/repro/engine/types.py": """
            class JobResult:
                def __init__(self, status, boxes=None):
                    self.status = status
                    self.boxes = boxes
            """,
        },
        select={"RPR008"},
    )
    assert [v.rule_id for v in violations] == ["RPR008"]
    assert "JobResult" in violations[0].message
    assert "detect()" in violations[0].message


def test_rpr008_detect_inside_try_except_exception_is_clean() -> None:
    violations = run(
        {
            "src/repro/engine/worker.py": """
            from repro.engine.types import JobResult

            def run_job(detector, frame) -> JobResult:
                try:
                    boxes = detector.detect(frame)
                except Exception as exc:
                    return JobResult(status="failed", boxes=None)
                return JobResult(status="ok", boxes=boxes)
            """,
            "src/repro/engine/types.py": """
            class JobResult:
                def __init__(self, status, boxes=None):
                    self.status = status
                    self.boxes = boxes
            """,
        },
        select={"RPR008"},
    )
    assert violations == []


def test_rpr008_suppression_with_justification_works() -> None:
    violations = run(
        {
            "src/repro/runner/exec.py": """
            from repro.engine.backends import make_backend

            def drive(jobs):
                # repro-lint: disable=RPR008 -- process-lifetime backend, reaped at exit
                backend = make_backend("thread")
                return [backend.run(j) for j in jobs]
            """,
        },
        select={"RPR008"},
    )
    assert violations == []


# ---------------------------------------------------------------------------
# RPR009 — import layering


def test_rpr009_upward_import_fires() -> None:
    violations = run(
        {
            "src/repro/engine/pipe.py": """
            from repro.core.mes import choose

            def go():
                return choose()
            """,
            "src/repro/core/mes.py": "def choose():\n    return 1\n",
        },
        select={"RPR009"},
    )
    assert [v.rule_id for v in violations] == ["RPR009"]
    violation = violations[0]
    assert violation.path == "src/repro/engine/pipe.py"
    assert "layer 'engine' must not import layer 'core'" in violation.message


def test_rpr009_type_checking_import_is_exempt() -> None:
    violations = run(
        {
            "src/repro/engine/pipe.py": """
            from typing import TYPE_CHECKING

            if TYPE_CHECKING:
                from repro.core.mes import MES

            def go(mes: "MES"):
                return mes
            """,
            "src/repro/core/mes.py": "class MES:\n    pass\n",
        },
        select={"RPR009"},
    )
    assert violations == []


def test_rpr009_function_level_import_still_enforced() -> None:
    violations = run(
        {
            "src/repro/engine/pipe.py": """
            def go():
                from repro.core.mes import choose
                return choose()
            """,
            "src/repro/core/mes.py": "def choose():\n    return 1\n",
        },
        select={"RPR009"},
    )
    assert [v.rule_id for v in violations] == ["RPR009"]


def test_rpr009_transitive_closure_admits_indirect_layers() -> None:
    # cli may import runner, runner may import core: the closure lets
    # cli import core directly too.
    violations = run(
        {
            "src/repro/cli.py": """
            from repro.core.mes import choose

            def main():
                return choose()
            """,
            "src/repro/core/mes.py": "def choose():\n    return 1\n",
        },
        select={"RPR009"},
    )
    assert violations == []


def test_rpr009_undeclared_layer_is_flagged() -> None:
    config = LintConfig(layers={"utils": ()})
    violations = run(
        {
            "src/repro/mystery/new.py": "X = 1\n",
        },
        select={"RPR009"},
        config=config,
    )
    assert [v.rule_id for v in violations] == ["RPR009"]
    assert "not declared" in violations[0].message
    assert violations[0].line == 1


def test_rpr009_custom_dag_overrides_default() -> None:
    # The shipped default allows core -> engine; a stricter custom DAG
    # can forbid it.
    sources = {
        "src/repro/core/exec.py": """
        from repro.engine.store import Store

        def go():
            return Store()
        """,
        "src/repro/engine/store.py": "class Store:\n    pass\n",
    }
    assert run(sources, select={"RPR009"}) == []
    strict = LintConfig(layers={"core": (), "engine": ()})
    violations = run(sources, select={"RPR009"}, config=strict)
    assert [v.rule_id for v in violations] == ["RPR009"]
    assert "allowed: nothing" in violations[0].message


# ---------------------------------------------------------------------------
# RPR010 — ordered sinks


def test_rpr010_set_into_json_dump_fires() -> None:
    # Straight-line, then inside a ``match`` case.
    for writer, origin in (
        (
            """
            import json

            def persist(items, out):
                keys = set(items)
                out.write(json.dumps(list(keys)))
            """,
            "src/repro/query/writer.py:5",
        ),
        (
            """
            import json

            def persist(items, out, kind):
                match kind:
                    case _:
                        keys = set(items)
                        out.write(json.dumps(list(keys)))
            """,
            "src/repro/query/writer.py:7",
        ),
    ):
        violations = run({"src/repro/query/writer.py": writer}, select={"RPR010"})
        assert [v.rule_id for v in violations] == ["RPR010"]
        message = violations[0].message
        assert "set()" in message
        assert origin in message
        assert "sorted(" in message


def test_rpr010_sorted_normalization_stays_clean() -> None:
    assert (
        run(
            {
                "src/repro/query/writer.py": """
                import json

                def persist(items, out):
                    keys = sorted(set(items))
                    out.write(json.dumps(keys))
                """,
            },
            select={"RPR010"},
        )
        == []
    )


def test_rpr010_inplace_sort_stays_clean() -> None:
    assert (
        run(
            {
                "src/repro/query/writer.py": """
                import json

                def persist(items, out):
                    keys = list(set(items))
                    keys.sort()
                    out.write(json.dumps(keys))
                """,
            },
            select={"RPR010"},
        )
        == []
    )


def test_rpr010_insertion_ordered_dict_views_stay_clean() -> None:
    # Dicts are insertion-ordered: views over a deterministically built
    # dict are deterministic, so they must NOT taint (the FP guard).
    assert (
        run(
            {
                "src/repro/query/writer.py": """
                import json

                def persist(records, out):
                    table = {}
                    for record in records:
                        table[record.key] = record.value
                    out.write(json.dumps(list(table.items()), sort_keys=True))
                """,
            },
            select={"RPR010"},
        )
        == []
    )


def test_rpr010_views_over_unordered_dict_fire() -> None:
    violations = run(
        {
            "src/repro/query/writer.py": """
            import json

            def persist(items, out):
                table = dict.fromkeys(set(items))
                keys = list(table)
                out.write(json.dumps(sorted(items)))

            def persist_views(items, out):
                grouped = {}
                for item in set(items):
                    grouped[item] = 1
                out.write(json.dumps(list(grouped.keys())))
            """,
        },
        select={"RPR010"},
    )
    # Only the second function fires: its dict was *built* in set order.
    assert [v.rule_id for v in violations] == ["RPR010"]
    assert violations[0].line == 13


def test_rpr010_listdir_through_helper_and_return_fires() -> None:
    # Provenance survives a call hop and a return: the unsorted listdir
    # happens in one module, the JSON write in another.
    violations = run(
        {
            "src/repro/runner/scan.py": """
            import os

            def frame_files(root):
                return [name for name in os.listdir(root)]
            """,
            "src/repro/runner/manifest.py": """
            import json

            from repro.runner.scan import frame_files

            def write_manifest(root, out):
                files = frame_files(root)
                out.write(json.dumps(files))
            """,
        },
        select={"RPR010"},
    )
    assert [v.rule_id for v in violations] == ["RPR010"]
    message = violations[0].message
    assert "os.listdir()" in message
    assert "flow:" in message
    assert "returned by repro.runner.scan.frame_files" in message


def test_rpr010_store_put_key_fires() -> None:
    violations = run(
        {
            "src/repro/engine/keys.py": """
            def index(store, names):
                key = frozenset(names)
                store.put(tuple(key), 1)
            """,
        },
        select={"RPR010"},
    )
    assert [v.rule_id for v in violations] == ["RPR010"]
    assert "frozenset()" in violations[0].message


def test_rpr010_joined_key_fires_and_sorted_join_does_not() -> None:
    violations = run(
        {
            "src/repro/query/keys.py": """
            def bad_key(parts):
                return ":".join(set(parts))

            def good_key(parts):
                return ":".join(sorted(set(parts)))
            """,
        },
        select={"RPR010"},
    )
    assert [v.rule_id for v in violations] == ["RPR010"]
    assert violations[0].line == 3


def test_rpr010_outside_repro_namespace_is_exempt() -> None:
    # Sinks in tests/benchmarks are not part of the persisted contract.
    assert (
        run(
            {
                "tests/helpers.py": """
                import json

                def dump(items, out):
                    out.write(json.dumps(list(set(items))))
                """,
            },
            select={"RPR010"},
        )
        == []
    )


# ---------------------------------------------------------------------------
# RPR011 — unstable serialization in persistence modules


def test_rpr011_json_dumps_without_sort_keys_fires() -> None:
    violations = run(
        {
            "src/repro/query/matstore.py": """
            import json

            def save(record, fh):
                fh.write(json.dumps(record))
            """,
        },
        select={"RPR011"},
    )
    assert [v.rule_id for v in violations] == ["RPR011"]
    assert "sort_keys=True" in violations[0].message


def test_rpr011_sorted_keys_and_nonpersistence_modules_clean() -> None:
    # sort_keys=True passes; the same code outside a persistence module
    # is out of scope.
    assert (
        run(
            {
                "src/repro/query/matstore.py": """
                import json

                def save(record, fh):
                    fh.write(json.dumps(record, sort_keys=True))
                """,
                "src/repro/cli.py": """
                import json

                def show(record):
                    print(json.dumps(record))
                """,
            },
            select={"RPR011"},
        )
        == []
    )


def test_rpr011_sort_keys_false_fires() -> None:
    violations = run(
        {
            "src/repro/query/matstore.py": """
            import json

            def save(record, fh):
                fh.write(json.dumps(record, sort_keys=False))
            """,
        },
        select={"RPR011"},
    )
    assert [v.rule_id for v in violations] == ["RPR011"]


def test_rpr011_id_hash_and_repr_keys_fire() -> None:
    violations = run(
        {
            "src/repro/query/matstore.py": """
            def key_for(obj):
                return id(obj)

            def slot_for(table, obj):
                return table[hash(obj)]

            def put(store, obj, value):
                store.put(repr(obj), value)
            """,
        },
        select={"RPR011"},
    )
    assert [v.rule_id for v in violations] == ["RPR011"] * 3
    messages = " | ".join(v.message for v in violations)
    assert "id()" in messages
    assert "hash()" in messages
    assert "repr()-derived key" in messages


def test_rpr011_diagnostic_repr_is_clean() -> None:
    # repr() for error messages / __repr__ is fine — only key positions
    # are flagged.
    assert (
        run(
            {
                "src/repro/query/matstore.py": """
                def describe(obj):
                    return f"unusable record {repr(obj)}"
                """,
            },
            select={"RPR011"},
        )
        == []
    )


def test_rpr011_custom_persistence_config() -> None:
    sources = {
        "src/repro/query/custom_sink.py": """
        import json

        def save(record, fh):
            fh.write(json.dumps(record))
        """,
    }
    # Not matched by the default fragments...
    assert run(sources, select={"RPR011"}) == []
    # ... but a configured fragment pulls it into scope.
    config = LintConfig(persistence=("custom_sink",))
    violations = run(sources, select={"RPR011"}, config=config)
    assert [v.rule_id for v in violations] == ["RPR011"]


# ---------------------------------------------------------------------------
# RPR012 — parallel-reduction order


def test_rpr012_as_completed_accumulation_fires_with_chain() -> None:
    violations = run(
        {
            "src/repro/engine/agg.py": """
            from concurrent.futures import as_completed

            def reduce_results(futures):
                total = 0.0
                for fut in as_completed(futures):
                    total += fut.result()
                return total
            """,
        },
        select={"RPR012"},
    )
    assert [v.rule_id for v in violations] == ["RPR012"]
    message = violations[0].message
    assert "'total'" in message
    assert "as_completed() (completion order)" in message
    # RPR007-style chain evidence.
    assert "flow:" in message
    assert "not associative" in message


def test_rpr012_as_completed_then_sort_is_clean() -> None:
    # The sanctioned pattern: drain completion order into a list, sort
    # by a stable key, then fold.
    assert (
        run(
            {
                "src/repro/engine/agg.py": """
                from concurrent.futures import as_completed

                def reduce_results(futures):
                    done = [(f.key, f.result()) for f in as_completed(futures)]
                    done.sort()
                    total = 0.0
                    for _, value in done:
                        total += value
                    return total
                """,
            },
            select={"RPR012"},
        )
        == []
    )


def test_rpr012_counters_are_exempt() -> None:
    # Constant increments are order-independent: counting elements of a
    # set is deterministic no matter the iteration order.
    assert (
        run(
            {
                "src/repro/engine/agg.py": """
                def count(items):
                    n = 0
                    for _ in set(items):
                        n += 1
                    return n
                """,
            },
            select={"RPR012"},
        )
        == []
    )


def test_rpr012_snapshot_merge_over_set_fires() -> None:
    violations = run(
        {
            "src/repro/obs/agg.py": """
            def combine(snapshots_by_name):
                merged = None
                for name in set(snapshots_by_name):
                    merged = merged.merge(snapshots_by_name[name])
                return merged
            """,
        },
        select={"RPR012"},
    )
    assert [v.rule_id for v in violations] == ["RPR012"]
    assert ".merge()" in violations[0].message


def test_rpr012_sorted_merge_is_clean() -> None:
    assert (
        run(
            {
                "src/repro/obs/agg.py": """
                def combine(snapshots_by_name):
                    merged = None
                    for name in sorted(snapshots_by_name):
                        merged = merged.merge(snapshots_by_name[name])
                    return merged
                """,
            },
            select={"RPR012"},
        )
        == []
    )


# ---------------------------------------------------------------------------
# RPR013 — process-transport safety


def test_rpr013_lambda_capturing_lock_fires_with_capture_chain() -> None:
    violations = run(
        {
            "src/repro/runner/dispatch.py": """
            import threading

            from concurrent.futures import ProcessPoolExecutor

            def run_one(job, lock):
                with lock:
                    return job

            def drive(jobs):
                lock = threading.Lock()
                pool = ProcessPoolExecutor()
                return list(pool.map(lambda job: run_one(job, lock), jobs))
            """,
        },
        select={"RPR013"},
    )
    assert [v.rule_id for v in violations] == ["RPR013"]
    message = violations[0].message
    assert "lambda" in message
    assert "cannot be imported by worker processes" in message
    # The capture chain names the free variable and what binds it.
    assert "capture chain" in message
    assert "'lock' (lock)" in message
    assert "repro.runner.dispatch.drive" in message


def test_rpr013_local_def_fires_top_level_def_is_clean() -> None:
    violations = run(
        {
            "src/repro/runner/dispatch.py": """
            from concurrent.futures import ProcessPoolExecutor

            def execute(job):
                return job * 2

            def drive(jobs):
                def helper(job):
                    return execute(job)
                pool = ProcessPoolExecutor()
                return list(pool.map(helper, jobs))

            def drive_safe(jobs):
                pool = ProcessPoolExecutor()
                return list(pool.map(execute, jobs))
            """,
        },
        select={"RPR013"},
    )
    # Only the local def fires; the module-level function is picklable.
    assert [v.rule_id for v in violations] == ["RPR013"]
    assert "local def" in violations[0].message
    assert "helper" in violations[0].message


def test_rpr013_thread_pool_is_exempt() -> None:
    assert (
        run(
            {
                "src/repro/runner/dispatch.py": """
                import threading

                from concurrent.futures import ThreadPoolExecutor

                def drive(jobs):
                    lock = threading.Lock()
                    pool = ThreadPoolExecutor()
                    return list(pool.map(lambda job: (job, lock), jobs))
                """,
            },
            select={"RPR013"},
        )
        == []
    )


def test_rpr013_bound_method_dragging_lock_fires() -> None:
    violations = run(
        {
            "src/repro/runner/dispatch.py": """
            import threading

            from concurrent.futures import ProcessPoolExecutor

            class Runner:
                def __init__(self):
                    self._lock = threading.Lock()

                def work(self, job):
                    return job

                def drive(self, jobs):
                    pool = ProcessPoolExecutor()
                    return list(pool.map(self.work, jobs))
            """,
        },
        select={"RPR013"},
    )
    assert [v.rule_id for v in violations] == ["RPR013"]
    message = violations[0].message
    assert "bound method" in message
    assert "self._lock (lock)" in message
    assert "process boundary" in message


def test_rpr013_module_mutation_fires_with_chain() -> None:
    violations = run(
        {
            "src/repro/runner/dispatch.py": """
            from concurrent.futures import ProcessPoolExecutor

            _RESULTS = {}

            def execute(job):
                _RESULTS[job] = job * 2
                return job

            def drive(jobs):
                pool = ProcessPoolExecutor()
                return list(pool.map(execute, jobs))
            """,
        },
        select={"RPR013"},
    )
    assert [v.rule_id for v in violations] == ["RPR013"]
    message = violations[0].message
    assert "mutates module state" in message
    assert "_RESULTS" in message
    assert "silently lost" in message
    assert "chain:" in message


# ---------------------------------------------------------------------------
# RPR014 — cache purity


def test_rpr014_clock_value_reaching_put_fires_with_flow() -> None:
    violations = run(
        {
            "src/repro/engine/persist.py": """
            import time

            def persist(store, stage, key):
                value = time.time()
                store.put(stage, key, value)
            """,
        },
        select={"RPR014"},
    )
    assert [v.rule_id for v in violations] == ["RPR014"]
    message = violations[0].message
    assert "not a pure function of its parameters" in message
    assert "time.time" in message
    assert "flow:" in message
    assert "derive_rng" in message  # the suggested fix mentions the seams


def test_rpr014_cross_module_laundering_fires() -> None:
    violations = run(
        {
            "src/repro/engine/clockutil.py": """
            import time

            def stamp():
                return time.time()
            """,
            "src/repro/engine/persist.py": """
            from repro.engine.clockutil import stamp

            def persist(store, stage, key):
                value = stamp()
                store.put(stage, key, value)
            """,
        },
        select={"RPR014"},
    )
    assert [v.rule_id for v in violations] == ["RPR014"]
    message = violations[0].message
    # The flow chain crosses the module boundary back to the clock read.
    assert "time.time" in message
    assert "clockutil" in message


def test_rpr014_derive_rng_seam_is_clean() -> None:
    assert (
        run(
            {
                "src/repro/utils/rng.py": """
                def derive_rng(seed, *key):
                    return object()
                """,
                "src/repro/engine/persist.py": """
                from repro.utils.rng import derive_rng

                def persist(store, stage, key, seed):
                    rng = derive_rng(seed, stage)
                    store.put(stage, key, rng)
                """,
            },
            select={"RPR014"},
        )
        == []
    )


def test_rpr014_timing_keyword_is_exempt() -> None:
    assert (
        run(
            {
                "src/repro/engine/persist.py": """
                import time

                def persist(store, stage, key, value):
                    started = time.perf_counter()
                    wall = (time.perf_counter() - started) * 1000.0
                    store.put(stage, key, value, compute_ms=wall)
                """,
            },
            select={"RPR014"},
        )
        == []
    )


def test_rpr014_parameter_derived_value_is_clean() -> None:
    assert (
        run(
            {
                "src/repro/engine/persist.py": """
                def persist(store, stage, key, boxes):
                    value = [b for b in boxes if b is not None]
                    store.put(stage, key, value)
                """,
            },
            select={"RPR014"},
        )
        == []
    )


# ---------------------------------------------------------------------------
# RPR015 — unbounded growth on the hot path


def test_rpr015_lexical_loop_growth_fires() -> None:
    # Straight-line, then with both method bodies inside ``match`` cases.
    for events in (
        """
        class EventLog:
            def __init__(self):
                self._events = []

            def on_batch(self, frames):
                for frame in frames:
                    self._events.append(frame)
        """,
        """
        class EventLog:
            def __init__(self, kind):
                match kind:
                    case _:
                        self._events = []

            def on_batch(self, frames, kind):
                match kind:
                    case _:
                        for frame in frames:
                            self._events.append(frame)
        """,
    ):
        violations = run({"src/repro/tracking/events.py": events}, select={"RPR015"})
        assert [v.rule_id for v in violations] == ["RPR015"]
        message = violations[0].message
        assert "EventLog._events" in message
        assert "grows via .append()" in message
        assert "inside a loop" in message
        assert "no bounding operation" in message


def test_rpr015_cross_module_growth_chain_fires() -> None:
    violations = run(
        {
            "src/repro/tracking/tracker.py": """
            class TrackBook:
                def __init__(self):
                    self._tracks = []

                def admit(self, track):
                    self._tracks.append(track)
            """,
            "src/repro/engine/loop.py": """
            from repro.tracking.tracker import TrackBook

            def serve(frames):
                book = TrackBook()
                for frame in frames:
                    book.admit(frame)
                return book
            """,
        },
        select={"RPR015"},
    )
    assert [v.rule_id for v in violations] == ["RPR015"]
    message = violations[0].message
    # The evidence names the cross-module caller chain into the loop.
    assert "reached from a loop" in message
    assert "repro.engine.loop.serve" in message
    assert "src/repro/engine/loop.py" in message


def test_rpr015_bounded_deque_is_clean() -> None:
    assert (
        run(
            {
                "src/repro/tracking/events.py": """
                from collections import deque

                class EventLog:
                    def __init__(self):
                        self._events = deque(maxlen=256)

                    def on_batch(self, frames):
                        for frame in frames:
                            self._events.append(frame)
                """,
            },
            select={"RPR015"},
        )
        == []
    )


def test_rpr015_eviction_anywhere_bounds_the_container() -> None:
    assert (
        run(
            {
                "src/repro/engine/cachebox.py": """
                class CacheBox:
                    def __init__(self):
                        self._entries = {}

                    def remember(self, keys):
                        for key in keys:
                            self._entries[key] = key

                    def evict_oldest(self):
                        while len(self._entries) > 100:
                            self._entries.pop(next(iter(self._entries)))
                """,
            },
            select={"RPR015"},
        )
        == []
    )


def test_rpr015_reassignment_outside_init_retires_contents() -> None:
    assert (
        run(
            {
                "src/repro/runner/batcher.py": """
                class Batcher:
                    def __init__(self):
                        self._batch = []

                    def feed(self, items):
                        for item in items:
                            self._batch.append(item)

                    def flush(self):
                        out = list(self._batch)
                        self._batch = []
                        return out
                """,
            },
            select={"RPR015"},
        )
        == []
    )


def test_rpr015_keyed_upsert_is_not_growth() -> None:
    assert (
        run(
            {
                "src/repro/obs/registry.py": """
                class Registry:
                    def __init__(self):
                        self._by_name = {}

                    def record(self, names):
                        for name in names:
                            if name not in self._by_name:
                                self._by_name[name] = 0
                """,
            },
            select={"RPR015"},
        )
        == []
    )


def test_rpr015_test_module_loops_are_not_hot_paths() -> None:
    assert (
        run(
            {
                "src/repro/tracking/tracker.py": """
                class TrackBook:
                    def __init__(self):
                        self._tracks = []

                    def admit(self, track):
                        self._tracks.append(track)
                """,
                "tests/test_tracker.py": """
                from repro.tracking.tracker import TrackBook

                def test_admit():
                    book = TrackBook()
                    for i in range(3):
                        book.admit(i)
                """,
            },
            select={"RPR015"},
        )
        == []
    )
