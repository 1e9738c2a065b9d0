"""One benchmark run in a fresh process.

Started by :mod:`benchmarks.e2e.run`, one process per run, never by hand::

    python -m benchmarks.e2e.child --workload W --seed S --trace 0|1 \\
        --work-dir DIR --result FILE

It imports ``repro.cli`` first, so CLI import cost is part of every run,
then runs the workload once and writes one JSON object to ``--result``:
its timings, the digest of the program's output, the outcome of each
output check and, with ``--trace 1``, every per-layer metric.
``--work-dir`` is the workload's own directory: the materialized store
for the query workloads, the extracted corpus for lint, and the export
target for the traced compare.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from benchmarks.e2e import corpus, layers, spec
from benchmarks.e2e.selftime import Patcher, SelfTimer

__all__ = ["main", "execute", "calibrate", "CALIBRATION_REF_S", "QUERY_TEXT"]

ROOT = Path(__file__).resolve().parents[2]

#: The query workloads' query, over the m=5 nuScenes suite and the LiDAR
#: reference.
QUERY_TEXT = (
    "SELECT frameID FROM (PROCESS video PRODUCE frameID, Detections USING "
    "MES(yolov7-tiny-clear, yolov7-tiny-night, yolov7-tiny-rainy, "
    "yolov7-all, yolov7-micro-all; lidar-ref) WITH gamma=5) "
    "WHERE COUNT('car') >= 2"
)

#: Sizes of the compare workloads (the paper workload) and of the query
#: workloads.  ``test_e2e.py`` shrinks them to check traced == untraced.
SIZES: dict[str, dict[str, Any]] = {
    spec.COMPARE: {"scale": 0.2, "frames": 300, "trials": 2},
    spec.QUERY: {"scale": 0.1, "frames": 600},
}


@dataclass
class Run:
    """What one workload run measured and found."""

    workload: str
    seed: int
    work_dir: Path
    sizes: dict[str, Any]
    setup_cpu_s: float = 0.0
    items: int = 0
    digest: str = ""
    checks: dict[str, bool] = field(default_factory=dict)
    detail: dict[str, Any] = field(default_factory=dict)

    def timed_setup(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        start = time.process_time()
        try:
            return fn(*args, **kwargs)
        finally:
            self.setup_cpu_s += time.process_time() - start


#: Sizes of the two calibration loops, and their summed CPU seconds on the
#: machine the baseline was recorded on (2 vCPU Intel Xeon VM, Python
#: 3.11) while its host left it alone.
CALIBRATION_STEPS = 400_000
CALIBRATION_KEYS = 50_000
CALIBRATION_PASSES = 3
CALIBRATION_REF_S = 0.24


def calibrate() -> float:
    """CPU seconds this process takes for two fixed pure-Python loops.

    One loop is cache-resident (dict updates, float arithmetic, building
    and sorting string-keyed tuples).  The other is memory-bound: it
    reads a 50k-entry dict (about 10 MB) in shuffled order and sorts its
    values.  Neither alone tracked every workload's slowdown when the
    host of a shared VM slowed it down; their sum did best.  Every child
    times the loops before and after its workload, and the parent scales
    the child's CPU times to :data:`CALIBRATION_REF_S` speed.

    The cyclic garbage collector is off while the loops run: after a
    workload it would walk the workload's whole heap, and after
    ``lint-cold`` that tripled the loop time.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.process_time()
        counts: dict[int, int] = {}
        total = 0.0
        rows = []
        for i in range(CALIBRATION_STEPS):
            counts[i % 1000] = counts.get(i % 1000, 0) + i
            total += (i * 0.5) ** 0.5
            if i % 7 == 0:
                rows.append((total, str(i)))
        rows.sort(key=lambda row: row[1])

        rng = random.Random(0)
        keys = list(range(CALIBRATION_KEYS))
        rng.shuffle(keys)
        table = {key: (key, str(key), key * 0.5) for key in keys}
        hits = 0
        for _ in range(CALIBRATION_PASSES):
            for key in keys:
                hits += table[key][0]
            rng.shuffle(keys)
        sorted(table.values(), key=lambda row: row[1])
        return time.process_time() - start
    finally:
        if collecting:
            gc.enable()


def _digest(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_compare(run: Run) -> None:
    """``repro compare`` on nusc-night, m=5, serial backend."""
    from benchmarks.common import standard_algorithms
    from repro import obs as obs_pkg
    from repro.core.scoring import WeightedLogScore
    from repro.engine.backends import make_backend, wall_timer
    from repro.runner import experiment, harness

    sizes = run.sizes
    traced = run.workload == "compare-night-trace"
    obs = (
        obs_pkg.Observability(level="trace", timer=wall_timer)
        if traced
        else obs_pkg.NULL_OBS
    )

    def setup_factory(trial: int) -> Any:
        return run.timed_setup(
            experiment.standard_setup,
            "nusc-night",
            trial=trial,
            scale=sizes["scale"],
            m=5,
            max_frames=sizes["frames"],
            seed=run.seed,
        )

    with make_backend("serial", obs=obs) as backend:
        outcomes = harness.compare_algorithms(
            setup_factory,
            standard_algorithms(),
            num_trials=sizes["trials"],
            scoring=WeightedLogScore(accuracy_weight=0.5),
            backend=backend,
            obs=obs,
        )
    if traced:
        # The CLI's --metrics-out/--trace-out/--events-out writers.
        trace_path = run.work_dir / "trace.json"
        obs_pkg.write_metrics(str(run.work_dir / "metrics.prom"), obs.snapshot())
        obs_pkg.write_trace_json(str(trace_path), obs.tracer)
        obs_pkg.write_events_jsonl(str(run.work_dir / "events.jsonl"), obs.events)
        spans = obs.tracer.finished()
        run.detail.update(
            {
                "obs.spans": len(spans),
                "obs.spans_dropped": obs.tracer.dropped,
                "obs.cache_miss_spans": sum(1 for s in spans if s.name == "cache-miss"),
                "obs.trace_bytes": trace_path.stat().st_size,
                "obs.events": len(obs.events.events()),
            }
        )
        run.checks["no_spans_dropped"] = obs.tracer.dropped == 0

    table = {
        name: {
            "s_sum": outcome.s_sum,
            "mean_ap": outcome.mean_ap,
            "mean_cost": outcome.mean_cost,
            "frames_processed": outcome.frames_processed,
        }
        for name, outcome in outcomes.items()
    }
    run.digest = _digest(table)
    run.items = sum(sum(outcome.frames_processed) for outcome in outcomes.values())
    run.checks["every_frame_processed"] = all(
        frames == sizes["frames"]
        for outcome in outcomes.values()
        for frames in outcome.frames_processed
    )
    opt = outcomes["OPT"].s_sum
    run.checks["opt_dominates"] = all(
        opt[trial] >= outcome.s_sum[trial]
        for outcome in outcomes.values()
        for trial in range(len(opt))
    )


def run_query(run: Run) -> None:
    """``repro query`` with ``--materialize-dir``, serial backend."""
    from repro.engine.backends import make_backend
    from repro.query.executor import QueryEngine
    from repro.runner import experiment

    sizes = run.sizes
    setup = run.timed_setup(
        experiment.standard_setup,
        "nusc-clear",
        trial=0,
        scale=sizes["scale"],
        m=5,
        max_frames=sizes["frames"],
        seed=run.seed,
    )
    bytes_before = _tree_bytes(run.work_dir)
    with make_backend("serial") as backend:
        engine = run.timed_setup(
            QueryEngine, backend=backend, materialize_dir=run.work_dir
        )
        with engine:
            run.timed_setup(_register, engine, setup)
            result = engine.execute(QUERY_TEXT)
            stats = engine.matstore.stats()
    run.digest = _digest(result.frame_ids())
    run.items = result.selection.frames_processed
    run.detail.update(
        {
            "query.matstore.hits": stats.hits,
            "query.matstore.hit_ratio": stats.hit_rate,
            "query.matstore.stores": stats.stores,
            "query.matstore.bytes_written": _tree_bytes(run.work_dir) - bytes_before,
        }
    )
    run.checks["every_frame_processed"] = run.items == sizes["frames"]
    if run.workload == "query-warm":
        run.checks["warm_store_read_only"] = stats.stores == 0
        run.checks["warm_store_all_hits"] = stats.hit_rate == 1.0
    else:
        run.checks["cold_store_all_writes"] = stats.hits == 0 and stats.stores > 0


def _register(engine: Any, setup: Any) -> None:
    engine.register_video("video", setup.frames)
    for detector in setup.detectors:
        engine.register_detector(detector)
    engine.register_reference(setup.reference)


def _tree_bytes(root: Path) -> int:
    return sum(path.stat().st_size for path in root.rglob("*") if path.is_file())


def run_lint(run: Run) -> None:
    """``repro lint --jobs 1`` over the pinned corpus, no cache."""
    from repro.lint import cli as lint_cli

    results: list[Any] = []

    def capture(fn: Callable[..., Any]) -> Callable[..., Any]:
        def lint_paths(*args: Any, **kwargs: Any) -> Any:
            results.append(fn(*args, **kwargs))
            return results[-1]

        return lint_paths

    patcher = Patcher()
    patcher.replace(lint_cli, "lint_paths", capture)
    report = io.StringIO()
    cwd = os.getcwd()
    os.chdir(run.work_dir)
    try:
        with contextlib.redirect_stdout(report):
            code = lint_cli.main(["--jobs", "1", *corpus.LINT_PATHS])
    finally:
        os.chdir(cwd)
        patcher.restore()
    files = results[0].files_checked
    findings = len(results[0].violations)
    run.digest = _digest(report.getvalue())
    run.items = files
    run.detail.update({"lint.files": files, "lint.findings": findings})
    run.checks["exit_zero"] = code == 0
    run.checks["pinned_file_count"] = files == corpus.FILES
    run.checks["no_findings"] = findings == 0


RUNNERS: dict[str, Callable[[Run], None]] = {
    spec.COMPARE: run_compare,
    spec.QUERY: run_query,
    spec.LINT: run_lint,
}


def execute(
    workload: str,
    seed: int,
    work_dir: Path,
    trace: bool,
    sizes: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Import the program, run ``workload`` once and report it.

    Also the in-process entry of ``test_e2e.py``, which passes reduced
    ``sizes``.
    """
    start, start_cpu = time.perf_counter(), time.process_time()
    import repro
    import repro.cli  # noqa: F401 -- CLI import cost is on the measured path

    import benchmarks.common  # noqa: F401

    source = Path(repro.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise RuntimeError(f"repro imported from {source}, not from {ROOT / 'src'}")
    import_s = time.perf_counter() - start
    import_cpu_s = time.process_time() - start_cpu

    kind = spec.WORKLOADS[workload].kind
    run = Run(
        workload=workload,
        seed=seed,
        work_dir=work_dir,
        sizes=SIZES.get(kind, {}) if sizes is None else sizes,
        setup_cpu_s=import_cpu_s,
    )
    timer = SelfTimer()
    patcher = Patcher()
    probes = layers.install(timer, patcher) if trace else None
    workload_start, workload_start_cpu = time.perf_counter(), time.process_time()
    try:
        timer.call("bench.unattributed", RUNNERS[kind], (run,))
    finally:
        workload_s = time.perf_counter() - workload_start
        workload_cpu_s = time.process_time() - workload_start_cpu
        patcher.restore()
    report: dict[str, Any] = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "import_s": import_s,
        "setup_cpu_s": run.setup_cpu_s,
        "inproc_s": import_s + workload_s,
        "inproc_cpu_s": import_cpu_s + workload_cpu_s,
        "items": run.items,
        "digest": run.digest,
        "checks": run.checks,
        "detail": run.detail,
    }
    if probes is not None:
        report["per_layer"] = layers.per_layer_metrics(
            timer, probes, run.detail, import_s
        )
        report["missing"] = probes.missing
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e.child")
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", type=Path)
    parser.add_argument("--result", type=Path)
    parser.add_argument(
        "--prime",
        action="store_true",
        help="only import the program (the discarded warm-up run)",
    )
    args = parser.parse_args(argv)
    if args.prime:
        import repro.cli  # noqa: F401

        import benchmarks.common  # noqa: F401

        return 0
    if args.workload is None or args.work_dir is None or args.result is None:
        parser.error("--workload, --work-dir and --result are required")
    before = calibrate()
    report = execute(args.workload, args.seed, args.work_dir, bool(args.trace))
    report["calibration_s"] = [before, calibrate()]
    args.result.write_text(json.dumps(report, sort_keys=True), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
