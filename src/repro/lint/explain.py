"""Per-rule guides: the single source of truth behind ``--explain``.

Each :class:`RuleGuide` carries the prose description, a minimal
true-positive example, a minimal false-positive (or true-negative)
example, and the sanctioned escapes for one rule.  ``repro lint
--explain RPR0XX`` renders a guide to the terminal and the SARIF
reporter uses the same ``description`` for ``fullDescription`` — one
text, two consumers, so the CLI and code-scanning UI cannot drift.

Guides describe *policy* (why the rule exists, what to do instead);
the rule classes in :mod:`repro.lint.rules` and
:mod:`repro.lint.project_rules` own the *mechanics*.  A test asserts
every shipped rule has a guide, so adding a rule without documenting
it fails CI.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["RuleGuide", "RULE_GUIDES", "format_guide", "full_description"]


@dataclass(frozen=True)
class RuleGuide:
    """Everything a developer needs to act on one rule's finding."""

    rule_id: str
    description: str
    true_positive: str
    false_positive: str
    escapes: str


def _guide(
    rule_id: str,
    description: str,
    true_positive: str,
    false_positive: str,
    escapes: str,
) -> tuple[str, RuleGuide]:
    return rule_id, RuleGuide(
        rule_id=rule_id,
        description=" ".join(description.split()),
        true_positive=true_positive.strip("\n"),
        false_positive=false_positive.strip("\n"),
        escapes=" ".join(escapes.split()),
    )


RULE_GUIDES: dict[str, RuleGuide] = dict(
    (
        _guide(
            "RPR000",
            """A file could not be read or parsed; no other rule ran on
            it.  Fix the syntax error or encoding problem — every
            unparsed file is a blind spot for the whole analyzer.""",
            "def broken(:  # SyntaxError — the file is skipped entirely",
            "# any file that parses cleanly",
            "None — a file the analyzer cannot parse cannot be certified.",
        ),
        _guide(
            "RPR001",
            """Global RNG calls (``numpy.random.*``, stdlib ``random``)
            inside core/, simulation/, engine/ or ensembling/ make runs
            depend on ambient interpreter state, so two runs with the
            same config can diverge.  All randomness must flow from the
            run seed through ``repro.utils.rng.derive_rng``.""",
            "score = random.random()  # in core/: ambient, unseeded",
            "rng = derive_rng(seed, 'jitter'); score = rng.random()",
            """Only ``repro/utils/rng.py`` may touch the global RNG; any
            other use needs an inline justified disable.""",
        ),
        _guide(
            "RPR002",
            """Wall-clock reads (``time.time``, ``monotonic``,
            ``perf_counter``, argless ``datetime.now``) outside
            ``engine/backends.py`` and benchmarks leak nondeterminism
            into results and cache keys.  Timing belongs to the injected
            timer seam.""",
            "started = time.time()  # in a detector: host-dependent",
            "wall_ms = timer()  # injected wall_timer seam from backends",
            """``engine/backends.py`` owns the timer seam; benchmarks
            measure by nature.  Elsewhere, inject a clock.""",
        ),
        _guide(
            "RPR003",
            """A module/class-level mutable container mutated at runtime
            is an unbounded process-lifetime cache with no eviction,
            size accounting, or persistence contract.  Use
            ``EvaluationStore`` (bounded, observable) instead.""",
            "_CACHE = {}\ndef f(k):\n    _CACHE[k] = compute(k)",
            "def f(store: EvaluationStore, k):\n    store.put('stage', k, compute(k))",
            """Setup-time registries that never grow per-frame may carry
            a justified inline disable.""",
        ),
        _guide(
            "RPR005",
            """Bare ``# type: ignore``, bare ``# noqa``, or a
            ``# repro-lint: disable`` without a justification hides an
            unknown class of problem from every future reader.""",
            "x = f()  # noqa",
            "x = f()  # repro-lint: disable=RPR003 -- bounded registry, setup-time only",
            """Always append ``-- why`` to a suppression; the lint
            engine rejects unjustified disables.""",
        ),
        _guide(
            "RPR006",
            """An ambient (unseeded or hardcoded-seed) RNG reaches
            core/, simulation/, engine/ or ensembling/ through the call
            graph.  Interprocedural: the taint flows through calls,
            returns, fields and ``self`` dispatch, and the finding
            carries the full flow chain.""",
            "rng = np.random.default_rng()  # flows into select_frames()",
            "rng = derive_rng(run_seed, 'selector')  # sanctioned seam",
            """``repro.utils.rng.derive_rng`` (and ``spawn_seeds``,
            ``derive_seed``) launder a seed into an RNG legitimately.""",
        ),
        _guide(
            "RPR007",
            """A write to shared state (``self.*`` containers, closure
            or module globals) reachable from a backend/executor/pool
            submitted callable without a lock held is a data race under
            the thread backend — whether the write sits in the submitted
            callable itself or any number of calls away, across modules.
            The finding names the call chain from submission to write.""",
            "backend.run(jobs, self.on_done)  # on_done -> tracker.update() unlocked",
            "def on_done(r):\n    with self._lock:\n        self._merge(r)",
            """Hold the owning lock around the write, or return values
            the caller merges single-threaded.""",
        ),
        _guide(
            "RPR008",
            """A backend/pool/file handle acquired but not released on
            every path, or a JobResult-returning function letting
            ``detect()`` exceptions escape, breaks the resilience
            contract: crashed jobs must surface as failed results, not
            torn resources.""",
            "pool = make_backend('thread')\npool.run(jobs)  # no close on raise",
            "with closing(make_backend('thread')) as pool:\n    pool.run(jobs)",
            "``with``/``try-finally`` every acquisition.",
        ),
        _guide(
            "RPR009",
            """A runtime import that violates the layer DAG declared in
            ``DEFAULT_LAYERS`` in ``repro/lint/project.py`` couples
            layers that must stay independent (e.g. core importing
            engine).""",
            "from repro.engine import runner  # inside repro/core/",
            "if TYPE_CHECKING:\n    from repro.engine import runner",
            """``TYPE_CHECKING`` imports are exempt; otherwise move the
            code or invert the dependency.""",
        ),
        _guide(
            "RPR010",
            """An iteration-order-unstable value (``set``, ``os.listdir``,
            ``Path.iterdir``/``glob``, ``as_completed``) reaches an
            ordered sink — JSON record, store key, joined string,
            element-wise write — without ``sorted()``.  Output bytes
            then vary across runs and hosts.""",
            "json.dump({'files': os.listdir(d)}, fh)",
            "json.dump({'files': sorted(os.listdir(d))}, fh)",
            """``sorted()`` at any hop on the flow path clears the
            taint.""",
        ),
        _guide(
            "RPR011",
            """Persistence-module serialization that is process- or
            run-dependent: ``json.dump(s)`` without ``sort_keys=True``,
            ``id()``/``hash()`` in keys, or ``repr()``-derived keys.
            Cached artifacts must be byte-stable across processes.""",
            "key = repr(params); json.dump(obj, fh)",
            "key = canonical_key(params); json.dump(obj, fh, sort_keys=True)",
            """Persistence modules are declared in
            ``DEFAULT_PERSISTENCE`` in ``repro/lint/project.py``; others
            are not checked.""",
        ),
        _guide(
            "RPR012",
            """An order-sensitive reduction (float accumulation,
            snapshot merge) consumes results in completion or hash
            order.  Float addition is not associative: the same jobs can
            sum to different totals run-to-run.""",
            "for f in as_completed(futs):\n    total += f.result().score",
            "for r in sorted(results, key=lambda r: r.job_id):\n    total += r.score",
            """Sort by a deterministic key before reducing, or use an
            order-insensitive reduction (max/min/count).""",
        ),
        _guide(
            "RPR013",
            """A callable submitted to the process backend must survive
            pickling and make sense in a fresh worker: lambdas and local
            defs are unpicklable, bound methods drag their whole
            instance (locks, open handles, tracers/backends) across the
            process boundary, and closures that mutate module state
            mutate the *worker's* copy, which dies with it.  The
            finding carries the capture/field evidence chain from the
            effect analysis.""",
            "pool.submit(lambda j: run(j, self._lock))  # captures a lock",
            "pool.submit(execute_job, job)  # top-level function, args only",
            """Submit module-level functions taking plain-data
            arguments; re-create locks/handles inside the worker.""",
        ),
        _guide(
            "RPR014",
            """A value flowing into ``EvaluationStore.put`` or
            materialized-store persistence must derive only from the
            function's parameters plus sanctioned seams — otherwise the
            cached result depends on hidden state (clock, pid, host,
            env, fields mutated outside ``__init__``) and replaying the
            cache is not equivalent to recomputing.  The finding shows
            the impurity's flow chain into the sink.""",
            "store.put(stage, key, time.time())  # clock reaches the cache",
            "rng = derive_rng(seed, stage)\nstore.put(stage, key, f(inputs, rng))",
            """``derive_rng`` and the other ``DEFAULT_SANCTIONED_SEAMS``
            in ``repro/lint/project.py``, and ``*_ms`` timing keywords
            (metadata, not cached values), are exempt.""",
        ),
        _guide(
            "RPR015",
            """An instance/module container growing inside (or
            transitively under) a loop with no bounding operation —
            eviction call, ``del``, ``deque(maxlen=...)``, wholesale
            reassignment — anywhere in the project leaks in a
            long-running service.  Interprocedural: a growth site is hot
            if any ``repro.*`` caller chain reaches it from a loop, and
            the finding names that chain.""",
            "def on_frame(self, f):\n    self._events.append(f)  # per-frame, never drained",
            "self._events = deque(maxlen=1024)  # bounded construction",
            """Bounded constructions, eviction methods (``pop``,
            ``evict``, ..., ``DEFAULT_BOUND_METHODS`` in
            ``repro/lint/project.py``), keyed upserts
            (``d.get``/``in``-guarded or ``setdefault`` stores), and
            reassignment outside ``__init__`` all count as bounds;
            ``repro.lint`` itself is exempt (batch-lifetime).""",
        ),
    )
)


def full_description(rule_id: str) -> str | None:
    """The prose description SARIF publishes as ``fullDescription``."""
    guide = RULE_GUIDES.get(rule_id)
    return guide.description if guide is not None else None


def _indent(block: str) -> str:
    return "\n".join(f"    {line}" for line in block.splitlines())


def format_guide(guide: RuleGuide, summary: str | None = None) -> str:
    """Render one guide for the terminal (``repro lint --explain``)."""
    parts = [guide.rule_id + (f": {summary}" if summary else "")]
    parts.append("")
    parts.append(guide.description)
    parts.append("")
    parts.append("Fires (true positive):")
    parts.append(_indent(guide.true_positive))
    parts.append("")
    parts.append("Does not fire (true negative / guarded):")
    parts.append(_indent(guide.false_positive))
    parts.append("")
    parts.append(f"Sanctioned escapes: {guide.escapes}")
    return "\n".join(parts)
