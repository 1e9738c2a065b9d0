"""Fixture-driven tests for every RPR rule: true positives, the
false-positive guards each rule promises, and the suppression machinery.

Fixtures are inline strings handed to :func:`repro.lint.lint_source` with
a *virtual path*, which is how they opt in or out of path-scoped rules —
nothing here ships offending code in the real tree (the CI gate lints
``tests/`` too).
"""

from __future__ import annotations

import textwrap

from repro.lint import lint_source

CORE = "src/repro/core/fixture.py"
SIM = "src/repro/simulation/fixture.py"


def run(source: str, path: str = CORE, select: set[str] | None = None):
    return lint_source(textwrap.dedent(source), path, select=select)


def ids(violations) -> list[str]:
    return [v.rule_id for v in violations]


class TestGlobalRngRule:
    def test_numpy_global_call_flagged(self):
        violations = run(
            """
            import numpy as np

            def draw():
                return np.random.rand(3)
            """
        )
        assert ids(violations) == ["RPR001"]
        assert "numpy.random.rand" in violations[0].message

    def test_bare_default_rng_flagged(self):
        violations = run(
            """
            import numpy as np

            def make():
                return np.random.default_rng()
            """
        )
        assert ids(violations) == ["RPR001"]

    def test_aliased_submodule_import_flagged(self):
        violations = run(
            """
            import numpy.random as npr

            def draw():
                return npr.normal()
            """
        )
        assert ids(violations) == ["RPR001"]

    def test_stdlib_random_flagged(self):
        violations = run(
            """
            import random

            def pick(items):
                return random.choice(items)
            """
        )
        assert ids(violations) == ["RPR001"]

    def test_from_import_of_stdlib_random_flagged(self):
        violations = run(
            """
            from random import randint

            def roll():
                return randint(1, 6)
            """
        )
        assert ids(violations) == ["RPR001"]

    def test_derived_generator_methods_not_flagged(self):
        # The sanctioned pattern: method calls on a derived Generator.
        violations = run(
            """
            from repro.utils.rng import derive_rng

            def draw(seed):
                rng = derive_rng(seed, "detector", 3)
                return rng.normal(size=4) + rng.random()
            """
        )
        assert violations == []

    def test_rule_scoped_to_restricted_packages(self):
        source = """
        import numpy as np

        def draw():
            return np.random.rand(3)
        """
        assert ids(run(source, path=CORE)) == ["RPR001"]
        assert run(source, path="src/repro/runner/fixture.py") == []

    def test_rng_module_itself_exempt(self):
        source = """
        import numpy as np

        def derive():
            return np.random.default_rng(7)
        """
        assert run(source, path="src/repro/utils/rng.py") == []


class TestWallClockRule:
    def test_perf_counter_flagged(self):
        violations = run(
            """
            import time

            def measure():
                return time.perf_counter()
            """,
            path=SIM,
        )
        assert ids(violations) == ["RPR002"]

    def test_from_import_time_flagged(self):
        violations = run(
            """
            from time import monotonic

            def measure():
                return monotonic()
            """,
            path=SIM,
        )
        assert ids(violations) == ["RPR002"]

    def test_argless_datetime_now_flagged(self):
        violations = run(
            """
            from datetime import datetime

            def stamp():
                return datetime.now()
            """,
            path=SIM,
        )
        assert ids(violations) == ["RPR002"]

    def test_tz_aware_datetime_now_not_flagged(self):
        # The rule bans *argless* now() only (matching the issue contract);
        # explicit-tz construction is assumed deliberate.
        violations = run(
            """
            from datetime import datetime, timezone

            def stamp():
                return datetime.now(timezone.utc)
            """,
            path=SIM,
        )
        assert violations == []

    def test_backends_and_benchmarks_exempt(self):
        source = """
        import time

        def measure():
            return time.perf_counter()
        """
        assert run(source, path="src/repro/engine/backends.py") == []
        assert run(source, path="benchmarks/fixture.py") == []

    def test_simulated_clock_methods_not_flagged(self):
        violations = run(
            """
            def bill(clock, detector):
                clock.charge(detector.inference_time_ms)
                return clock.now_ms()
            """,
            path=SIM,
        )
        assert violations == []


class TestUnboundedCacheRule:
    def test_module_level_dict_mutated_in_function(self):
        violations = run(
            """
            _CACHE = {}

            def remember(key, value):
                _CACHE[key] = value
            """
        )
        assert ids(violations) == ["RPR003"]

    def test_growth_method_calls_flagged(self):
        violations = run(
            """
            _SEEN = []

            def record(item):
                _SEEN.append(item)
            """
        )
        assert ids(violations) == ["RPR003"]

    def test_import_time_population_allowed(self):
        violations = run(
            """
            _TABLE = {}
            for key in ("a", "b", "c"):
                _TABLE[key] = len(key)
            """
        )
        assert violations == []

    def test_constant_mapping_not_flagged(self):
        violations = run(
            """
            _LIMITS = {"mes": 5, "mes_b": 7}

            def limit(name):
                return _LIMITS[name]
            """
        )
        assert violations == []

    def test_function_local_cache_not_flagged(self):
        violations = run(
            """
            def summarize(items):
                acc = {}
                for item in items:
                    acc[item.key] = item.value
                return acc
            """
        )
        assert violations == []

    def test_class_level_container_mutated_via_self(self):
        violations = run(
            """
            class Memo:
                cache = {}

                def put(self, key, value):
                    self.cache[key] = value
            """
        )
        assert ids(violations) == ["RPR003"]

    def test_shadowed_instance_attribute_not_flagged(self):
        # ``self.cache = {}`` in __init__ shadows the class default, so
        # the shared class-level container is inert.
        violations = run(
            """
            class Memo:
                cache = {}

                def __init__(self):
                    self.cache = {}

                def put(self, key, value):
                    self.cache[key] = value
            """
        )
        assert violations == []

    def test_justified_suppression_honoured(self):
        violations = run(
            """
            _REGISTRY = {}

            def register(name, factory):
                _REGISTRY[name] = factory  # repro-lint: disable=RPR003 -- bounded: setup-time registry
            """
        )
        assert violations == []


class TestBlanketSuppressionRule:
    def test_bare_type_ignore_flagged(self):
        violations = run("x = compute()  # type: ignore\n")
        assert ids(violations) == ["RPR005"]

    def test_coded_type_ignore_allowed(self):
        assert run("x = compute()  # type: ignore[name-defined]\n") == []

    def test_bare_noqa_flagged(self):
        violations = run("import os  # noqa\n")
        assert ids(violations) == ["RPR005"]

    def test_coded_noqa_allowed(self):
        assert run("import os  # noqa: F401\n") == []

    def test_unjustified_disable_flagged_and_not_self_suppressible(self):
        violations = run(
            """
            _CACHE = {}

            def remember(key, value):
                _CACHE[key] = value  # repro-lint: disable=all
            """
        )
        # The bare disable hides RPR003 but cannot launder itself.
        assert ids(violations) == ["RPR005"]

    def test_justified_disable_clean(self):
        assert (
            run("value = 3  # repro-lint: disable=RPR003 -- bounded: constant\n") == []
        )


class TestSuppressionMechanics:
    def test_preceding_comment_line_suppresses(self):
        violations = run(
            """
            import time

            def measure():
                # repro-lint: disable=RPR002 -- fixture: measurement-only probe
                return time.perf_counter()
            """,
            path=SIM,
        )
        assert violations == []

    def test_suppression_is_rule_specific(self):
        violations = run(
            """
            import time

            def measure():
                return time.perf_counter()  # repro-lint: disable=RPR001 -- wrong rule on purpose
            """,
            path=SIM,
        )
        assert ids(violations) == ["RPR002"]


class TestEngineBasics:
    def test_select_narrows_rules(self):
        source = """
        import time

        _CACHE = {}

        def f(key):
            _CACHE[key] = time.perf_counter()
        """
        # Both land on the same line; ordering is by column, so the
        # assignment (RPR003) precedes the clock call inside it (RPR002).
        assert ids(run(source, path=SIM)) == ["RPR003", "RPR002"]
        assert ids(run(source, path=SIM, select={"RPR003"})) == ["RPR003"]

    def test_syntax_error_reported_as_parse_violation(self):
        violations = run("def broken(:\n")
        assert ids(violations) == ["RPR000"]

    def test_violations_carry_location(self):
        violations = run(
            """
            import time

            def measure():
                return time.perf_counter()
            """,
            path=SIM,
        )
        assert violations[0].path == SIM
        assert violations[0].line == 5
        assert violations[0].col > 0
