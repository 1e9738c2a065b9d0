"""What a traced run wraps, and the per-layer metrics it reports.

Each name is wrapped where its caller resolves it.  A function imported
by name into another module is replaced in that module's namespace (for
example ``mean_average_precision`` in ``repro.core.environment``, which
is where the environment looks it up), and a method on its class.  A
target that no longer exists is skipped and listed in the run's
``missing`` output, so a refactor blurs the per-layer numbers instead of
breaking the benchmark.
"""

from __future__ import annotations

import importlib
from collections import Counter
from collections.abc import Callable
from typing import Any

from benchmarks.e2e.selftime import AfterHook, Patcher, SelfTimer
from benchmarks.e2e.spec import PER_LAYER_METRICS, STORE_STAGES

__all__ = ["Probes", "install", "per_layer_metrics"]

_STORE = "repro.engine.store:EvaluationStore"
_ENV = "repro.core.environment:DetectionEnvironment"
_MATSTORE = "repro.query.matstore:MaterializedDetectionStore"
_LINT_RULES = "repro.lint.project_rules"

#: (layer, owner, attributes); an owner is ``module`` or ``module:Class``.
TARGETS: tuple[tuple[str, str, tuple[str, ...]], ...] = (
    (
        "runner.experiment",
        "repro.runner.experiment",
        ("standard_setup", "make_environment"),
    ),
    (
        "runner.experiment",
        "repro.runner.harness",
        ("compare_algorithms", "run_algorithms"),
    ),
    ("simulation.world", "repro.simulation.datasets", ("generate_video",)),
    ("simulation.world", "repro.simulation.datasets:DatasetSpec", ("build",)),
    ("simulation.world", "repro.simulation.datasets:Dataset", ("as_video",)),
    (
        "simulation.detectors",
        "repro.simulation.detectors:SimulatedDetector",
        ("detect",),
    ),
    ("simulation.lidar", "repro.simulation.lidar:SimulatedLidar", ("detect",)),
    ("engine.backends", "repro.engine.backends:SerialBackend", ("run",)),
    (
        "engine.store",
        _STORE,
        (
            "__init__",
            "get",
            "get_many",
            "put",
            "put_many",
            "get_or_compute",
            "contains",
            "contains_many",
        ),
    ),
    ("core.environment", _ENV, ("__init__", "evaluate", "peek", "prefetch")),
    ("detection.metrics", "repro.core.environment", ("mean_average_precision",)),
    ("ensembling", "repro.ensembling.base:EnsembleMethod", ("fuse",)),
    (
        "query.plan",
        "repro.query.executor:QueryEngine",
        ("plan", "_lower", "physical_plan"),
    ),
    ("query.executor", "repro.query.executor:QueryEngine", ("execute",)),
    ("query.matstore.open", _MATSTORE, ("__init__",)),
    ("query.matstore.load", _MATSTORE, ("load",)),
    ("query.matstore.store", _MATSTORE, ("store",)),
    ("query.matstore.flush", _MATSTORE, ("flush", "close")),
    (
        "obs.facade",
        "repro.obs.api:Observability",
        ("count", "observe", "set_gauge", "snapshot", "event", "span", "add_span"),
    ),
    ("obs.facade", "repro.obs.api:_NullSpanContext", ("__enter__", "__exit__")),
    ("obs.facade", "repro.obs.tracer:_SpanContext", ("__enter__", "__exit__")),
    ("obs.facade", "repro.obs.metrics:Counter", ("inc",)),
    ("obs.facade", "repro.obs.metrics:Gauge", ("set",)),
    ("obs.facade", "repro.obs.metrics:Histogram", ("observe",)),
    (
        "obs.export",
        "repro.obs",
        ("write_metrics", "write_trace_json", "write_events_jsonl"),
    ),
    ("lint.per_file", "repro.lint.engine", ("lint_source",)),
    ("lint.parse", "repro.lint.base:FileContext", ("from_source",)),
    ("lint.project_build", "repro.lint.project:Project", ("from_contexts",)),
    ("lint.callgraph", "repro.lint.callgraph:CallGraph", ("build",)),
    ("lint.dataflow_rng", _LINT_RULES, ("analyze_rng_taint",)),
    ("lint.dataflow_ordering", _LINT_RULES, ("analyze_ordering",)),
    ("lint.dataflow_effects", _LINT_RULES, ("analyze_effects",)),
)

#: (layer, base class, method): every subclass's own definition of the
#: method is wrapped, because each algorithm or rule may override it.
OVERRIDE_TARGETS: tuple[tuple[str, str, str], ...] = (
    ("core.selection", "repro.core.selection:SelectionAlgorithm", "run"),
    ("lint.project_rules", "repro.lint.project:ProjectRule", "check_project"),
)

#: Layer -> the metric reporting its self time.
SELF_TIME_METRICS: dict[str, str] = {
    "runner.experiment": "runner.experiment.self_s",
    "simulation.world": "simulation.world.self_s",
    "simulation.detectors": "simulation.detectors.self_s",
    "simulation.lidar": "simulation.lidar.self_s",
    "engine.backends": "engine.backends.self_s",
    "engine.store": "engine.store.self_s",
    "core.environment": "core.environment.self_s",
    "core.selection": "core.selection.self_s",
    "detection.metrics": "detection.metrics.self_s",
    "ensembling": "ensembling.self_s",
    "query.plan": "query.executor.plan_s",
    "query.executor": "query.executor.execute_self_s",
    "query.matstore.open": "query.matstore.open_s",
    "query.matstore.load": "query.matstore.load_s",
    "query.matstore.store": "query.matstore.store_s",
    "query.matstore.flush": "query.matstore.flush_s",
    "obs.facade": "obs.facade_s",
    "obs.export": "obs.export_s",
    "lint.per_file": "lint.per_file_s",
    "lint.parse": "lint.parse_s",
    "lint.project_build": "lint.project_build_s",
    "lint.callgraph": "lint.callgraph_s",
    "lint.dataflow_rng": "lint.dataflow_rng_s",
    "lint.dataflow_ordering": "lint.dataflow_ordering_s",
    "lint.dataflow_effects": "lint.dataflow_effects_s",
    "lint.project_rules": "lint.project_rules_s",
    "bench.unattributed": "bench.unattributed_s",
}

#: Layer -> the metric counting its calls.
CALL_METRICS: dict[str, str] = {
    "simulation.detectors": "simulation.detectors.calls",
    "simulation.lidar": "simulation.lidar.calls",
    "engine.store": "engine.store.calls",
    "detection.metrics": "detection.metrics.calls",
    "ensembling": "ensembling.calls",
}


class Probes:
    """Counts and objects the wrappers collect after successful calls."""

    def __init__(self) -> None:
        self.counts: Counter[str] = Counter()
        #: Class-pool size -> number of pools of that size, over every fuse.
        self.pool_sizes: Counter[int] = Counter()
        self.stores: list[Any] = []
        self.missing: list[str] = []

    def hooks(self) -> dict[tuple[str, str], AfterHook]:
        """After-hooks by (owner, attribute)."""
        return {
            ("repro.simulation.datasets", "generate_video"): self._generated,
            ("repro.runner.experiment", "standard_setup"): self._used,
            ("repro.engine.backends:SerialBackend", "run"): self._jobs,
            (_STORE, "__init__"): self._store,
            (_ENV, "evaluate"): self._counter("evaluate"),
            (_ENV, "peek"): self._counter("peek"),
            ("repro.ensembling.base:EnsembleMethod", "fuse"): self._pools,
        }

    def _counter(self, key: str) -> AfterHook:
        def hook(result: Any, args: tuple, kwargs: dict) -> None:
            self.counts[key] += 1

        return hook

    def _generated(self, video: Any, args: tuple, kwargs: dict) -> None:
        self.counts["frames_generated"] += len(video)

    def _used(self, setup: Any, args: tuple, kwargs: dict) -> None:
        self.counts["frames_used"] += len(setup.frames)

    def _jobs(self, results: Any, args: tuple, kwargs: dict) -> None:
        self.counts["jobs"] += len(results)
        self.counts["jobs_failed"] += sum(1 for r in results if not r.ok)

    def _store(self, result: Any, args: tuple, kwargs: dict) -> None:
        self.stores.append(args[0])

    def _pools(self, result: Any, args: tuple, kwargs: dict) -> None:
        per_detector = args[1] if len(args) > 1 else kwargs["per_detector"]
        labels = Counter(d.label for fd in per_detector for d in fd.detections)
        self.pool_sizes.update(labels.values())


def _resolve(spec: str) -> Any | None:
    module_name, _, class_name = spec.partition(":")
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(owner, class_name, None) if class_name else owner


def _subclasses(base: type) -> list[type]:
    found: list[type] = []
    pending = list(base.__subclasses__())
    while pending:
        cls = pending.pop()
        if cls not in found:
            found.append(cls)
            pending.extend(cls.__subclasses__())
    return found


def install(timer: SelfTimer, patcher: Patcher) -> Probes:
    """Wrap every target with ``timer``; ``patcher.restore()`` undoes it."""
    probes = Probes()
    hooks = probes.hooks()

    def wrapping(layer: str, hook: AfterHook | None) -> Callable[..., Any]:
        return lambda fn: timer.wrap(layer, fn, hook)

    for layer, spec, names in TARGETS:
        owner = _resolve(spec)
        for name in names:
            make = wrapping(layer, hooks.get((spec, name)))
            if owner is None or not patcher.replace(owner, name, make):
                probes.missing.append(f"{spec}.{name}")
    for layer, spec, name in OVERRIDE_TARGETS:
        base = _resolve(spec)
        if base is None:
            probes.missing.append(f"{spec}.{name}")
            continue
        for cls in _subclasses(base):
            method = vars(cls).get(name)
            if method is None or getattr(method, "__isabstractmethod__", False):
                continue
            patcher.replace(cls, name, wrapping(layer, None))
    return probes


def _nearest_rank(sizes: Counter[int], share: float) -> float:
    """The smallest pool size with at least ``share`` of pools at or below it."""
    total = sum(sizes.values())
    seen = 0
    for size in sorted(sizes):
        seen += sizes[size]
        if seen >= share * total:
            return float(size)
    return 0.0


def per_layer_metrics(
    timer: SelfTimer, probes: Probes, detail: dict[str, Any], import_s: float
) -> dict[str, float]:
    """Every per-layer metric except ``bench.trace_overhead``.

    ``detail`` supplies what the workload itself read off the program
    (span and event counts, lint totals, store bytes); keys that name a
    per-layer metric are copied through.
    """
    metrics = {name: 0.0 for name, _ in PER_LAYER_METRICS}
    metrics.pop("bench.trace_overhead")
    metrics["import.self_s"] = import_s
    metrics["bench.bookkeeping_s"] = timer.bookkeeping_s
    for layer, name in SELF_TIME_METRICS.items():
        metrics[name] = timer.self_s.get(layer, 0.0)
    for layer, name in CALL_METRICS.items():
        metrics[name] = float(timer.calls.get(layer, 0))

    counts = probes.counts
    generated = counts["frames_generated"]
    metrics["simulation.world.frames_generated"] = float(generated)
    metrics["simulation.world.used_ratio"] = (
        counts["frames_used"] / generated if generated else 0.0
    )
    metrics["engine.backends.jobs"] = float(counts["jobs"])
    metrics["engine.backends.jobs_failed"] = float(counts["jobs_failed"])
    metrics["core.environment.evaluate_calls"] = float(counts["evaluate"])
    metrics["core.environment.peek_calls"] = float(counts["peek"])

    stage_lookups: Counter[str] = Counter()
    stage_hits: Counter[str] = Counter()
    for store in probes.stores:
        stats = store.stats()
        metrics["engine.store.evictions"] += stats.evictions
        for stage, stage_stats in stats.stages.items():
            stage_lookups[stage] += stage_stats.lookups
            stage_hits[stage] += stage_stats.hits
    lookups = sum(stage_lookups.values())
    metrics["engine.store.lookups"] = float(lookups)
    metrics["engine.store.misses"] = float(lookups - sum(stage_hits.values()))
    metrics["engine.store.hit_ratio"] = (
        sum(stage_hits.values()) / lookups if lookups else 0.0
    )
    for stage in STORE_STAGES:
        metrics[f"engine.store.hit_ratio.{stage}"] = (
            stage_hits[stage] / stage_lookups[stage] if stage_lookups[stage] else 0.0
        )

    pools = probes.pool_sizes
    total_pools = sum(pools.values())
    metrics["ensembling.class_pools"] = float(total_pools)
    metrics["ensembling.class_pool_p50"] = _nearest_rank(pools, 0.50)
    metrics["ensembling.class_pool_p99"] = _nearest_rank(pools, 0.99)
    metrics["ensembling.class_pool_max"] = float(max(pools, default=0))
    cutoff = getattr(_resolve("repro.ensembling.base"), "VECTORIZE_MIN_POOL", None)
    if cutoff is not None and total_pools:
        metrics["ensembling.vectorized_share"] = (
            sum(n for size, n in pools.items() if size >= cutoff) / total_pools
        )

    for name, value in detail.items():
        if name in metrics:
            metrics[name] = float(value)
    return metrics
