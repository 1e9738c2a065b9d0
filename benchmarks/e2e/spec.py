"""Workloads and metric names of the end-to-end benchmark.

``BENCHMARK.json`` at the repository root lists the same workloads and
metrics with their regression bounds; ``test_e2e.py`` keeps the two in
step.  The reasons each workload exists are in ``README.md``.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "Workload",
    "WORKLOADS",
    "E2E_METRICS",
    "PER_LAYER_METRICS",
    "STORE_STAGES",
    "COMPARE",
    "QUERY",
    "LINT",
]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        name: The ``--workload`` name.
        kind: Which program output it produces (``compare``, ``query`` or
            ``lint``); workloads of one kind must agree on their digest.
        why: One line on what the workload stresses.
    """

    name: str
    kind: str
    why: str


COMPARE = "compare"
QUERY = "query"
LINT = "lint"

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "compare-night",
            COMPARE,
            "The paper workload: six algorithms on 300 nusc-night frames, "
            "m=5, 2 trials; OPT's 31-ensemble peeks drive store, fusion "
            "and AP traffic.",
        ),
        Workload(
            "compare-night-trace",
            COMPARE,
            "compare-night at obs level trace, exporting trace, metrics "
            "and events as the CLI does; the only workload where "
            "observability does work.",
        ),
        Workload(
            "query-cold",
            QUERY,
            "MES query over 5 detectors on 600 nusc-clear frames into an "
            "empty materialized store: the store write path, with no OPT.",
        ),
        Workload(
            "query-warm",
            QUERY,
            "The same query on a filled store: the read path with zero "
            "inference, so set-up (world generation, store open) dominates.",
        ),
        Workload(
            "lint-cold",
            LINT,
            "repro lint --jobs 1 without cache over a pinned 186-file "
            "tree, so new product code cannot move lint time.",
        ),
    )
}

#: (name, unit) of every end-to-end metric, measured on untraced runs.
#: The times are CPU seconds of the run's process scaled to the
#: reference machine speed (see ``child.calibrate``).
E2E_METRICS: tuple[tuple[str, str], ...] = (
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: Stages of the evaluation store, each with its own hit ratio.
STORE_STAGES: tuple[str, ...] = ("detector", "reference", "fused", "est_ap", "true_ap")

#: (name, unit) of every per-layer metric, measured on traced runs.
#: Every workload reports all of them; a layer a workload never enters
#: reads 0.
PER_LAYER_METRICS: tuple[tuple[str, str], ...] = (
    ("import.self_s", "s"),
    ("runner.experiment.self_s", "s"),
    ("simulation.world.self_s", "s"),
    ("simulation.world.frames_generated", "count"),
    ("simulation.world.used_ratio", "ratio"),
    ("simulation.detectors.calls", "count"),
    ("simulation.detectors.self_s", "s"),
    ("simulation.lidar.calls", "count"),
    ("simulation.lidar.self_s", "s"),
    ("engine.backends.jobs", "count"),
    ("engine.backends.self_s", "s"),
    ("engine.backends.jobs_failed", "count"),
    ("engine.store.calls", "count"),
    ("engine.store.self_s", "s"),
    ("engine.store.lookups", "count"),
    ("engine.store.misses", "count"),
    ("engine.store.evictions", "count"),
    ("engine.store.hit_ratio", "ratio"),
    *((f"engine.store.hit_ratio.{stage}", "ratio") for stage in STORE_STAGES),
    ("core.environment.evaluate_calls", "count"),
    ("core.environment.peek_calls", "count"),
    ("core.environment.self_s", "s"),
    ("core.selection.self_s", "s"),
    ("detection.metrics.calls", "count"),
    ("detection.metrics.self_s", "s"),
    ("ensembling.calls", "count"),
    ("ensembling.self_s", "s"),
    ("ensembling.class_pools", "count"),
    ("ensembling.class_pool_p50", "count"),
    ("ensembling.class_pool_p99", "count"),
    ("ensembling.class_pool_max", "count"),
    ("ensembling.vectorized_share", "ratio"),
    ("query.executor.plan_s", "s"),
    ("query.executor.execute_self_s", "s"),
    ("query.matstore.open_s", "s"),
    ("query.matstore.load_s", "s"),
    ("query.matstore.hits", "count"),
    ("query.matstore.hit_ratio", "ratio"),
    ("query.matstore.store_s", "s"),
    ("query.matstore.flush_s", "s"),
    ("query.matstore.stores", "count"),
    ("query.matstore.bytes_written", "bytes"),
    ("obs.facade_s", "s"),
    ("obs.export_s", "s"),
    ("obs.spans", "count"),
    ("obs.spans_dropped", "count"),
    ("obs.cache_miss_spans", "count"),
    ("obs.trace_bytes", "bytes"),
    ("obs.events", "count"),
    ("lint.per_file_s", "s"),
    ("lint.parse_s", "s"),
    ("lint.project_build_s", "s"),
    ("lint.callgraph_s", "s"),
    ("lint.dataflow_rng_s", "s"),
    ("lint.dataflow_ordering_s", "s"),
    ("lint.dataflow_effects_s", "s"),
    ("lint.project_rules_s", "s"),
    ("lint.files", "count"),
    ("lint.findings", "count"),
    ("bench.unattributed_s", "s"),
    ("bench.bookkeeping_s", "s"),
    ("bench.trace_overhead", "ratio"),
)
