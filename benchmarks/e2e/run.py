"""Drives the end-to-end benchmark: one fresh child process per run.

Load is closed-loop with one client: the next run starts only when the
previous one has exited, always on the serial backend, so the benchmark
fits a 2-core machine.  Workloads are interleaved round-robin.  Each set
starts with one discarded warm-up process that only imports the program
(compiling bytecode and warming the page cache; a fresh process inherits
nothing else), then runs either ``--runs`` rounds or as many rounds as
fit in ``--seconds``.  ``--trace`` first adds one traced run per
workload for the per-layer metrics.

Every run's output is checked (see ``README.md``); a failed check counts
against ``error_rate`` and makes the command exit 1.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and the medians of the end-to-end metrics (or, with
``--trace``, of the per-layer metrics).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from benchmarks.e2e import corpus
from benchmarks.e2e.child import CALIBRATION_REF_S
from benchmarks.e2e.spec import E2E_METRICS, PER_LAYER_METRICS, WORKLOADS

__all__ = ["main", "summarize"]

ROOT = Path(__file__).resolve().parents[2]
EXPECTED = Path(__file__).with_name("expected.json")

#: Scratch space inside the checkout, removed when the command ends.
WORK_DIR = ".bench_e2e"

#: Timed rounds run even when ``--seconds`` is already spent: two, so
#: that set-up is measured more than once.  More would not fit
#: ``--seconds`` when the host runs the machine at half speed.  After
#: traced runs one is enough, since it only gives
#: ``bench.trace_overhead`` its base.
MIN_ROUNDS = 2
MIN_ROUNDS_TRACED = 1

#: A run killed past this is a failure; with ``--seconds`` the command as
#: a whole also stays under it.
TIMEOUT_S = 170.0

_REQUIRED = ("src/repro/__init__.py", "benchmarks/common.py")


@dataclass
class ChildRun:
    """One child process and what checking its output found."""

    workload: str
    trace: bool
    rss_mb: float = 0.0
    report: dict[str, Any] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors


def summarize(values: Sequence[float]) -> dict[str, float]:
    """Median, first and third quartile, and count of ``values``."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _fingerprint(root: Path) -> list[tuple[str, int, str]]:
    return [
        (
            path.relative_to(root).as_posix(),
            path.stat().st_size,
            hashlib.sha256(path.read_bytes()).hexdigest(),
        )
        for path in sorted(root.rglob("*"))
        if path.is_file()
    ]


class Bench:
    """One set of runs of one seed, in a private scratch directory."""

    def __init__(self, scratch: Path, seed: int, deadline: float | None) -> None:
        self.scratch = scratch
        self.seed = seed
        self.deadline = deadline
        self.runs: list[ChildRun] = []
        self._count = 0
        self._digests: dict[str, str] = {}
        expected = json.loads(EXPECTED.read_text(encoding="utf-8"))["digests"]
        self._expected = {
            kind: by_seed.get(str(seed)) for kind, by_seed in expected.items()
        }
        self._corpus = scratch / "corpus"
        self._warm_store = scratch / "warm-store"
        self._warm_print: list[tuple[str, int, str]] = []

    def _spawn(self, args: list[str], run: ChildRun) -> bool:
        """Run one child to exit, filling in its peak RSS."""
        timeout = TIMEOUT_S
        if self.deadline is not None:
            timeout = max(1.0, self.deadline - time.perf_counter())
        path = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
        # Temporary files of the program stay inside the checkout too.  The
        # program makes no BLAS calls, but OpenBLAS starts a thread pool at
        # import that spins for a varying ~0.1 s of CPU; one thread avoids
        # that noise in the child's process CPU time.
        env = dict(
            os.environ,
            PYTHONPATH=path,
            TMPDIR=str(self.scratch),
            OPENBLAS_NUM_THREADS="1",
        )
        log = self._path("child", ".log")
        with log.open("w", encoding="utf-8") as stderr:
            proc = subprocess.Popen(
                [sys.executable, "-m", "benchmarks.e2e.child", *args],
                cwd=ROOT,
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=stderr,
            )
            watchdog = threading.Timer(timeout, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
        run.rss_mb = usage.ru_maxrss / 1024.0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            tail = log.read_text(encoding="utf-8").strip().splitlines()[-5:]
            run.errors.append(f"exit status {proc.returncode}: " + " | ".join(tail))
        return proc.returncode == 0

    def _path(self, stem: str, suffix: str) -> Path:
        self._count += 1
        return self.scratch / f"{stem}-{self._count}{suffix}"

    def prime(self) -> bool:
        """The discarded warm-up: a process that only imports the program."""
        run = ChildRun("warm-up", trace=False)
        self._spawn(["--prime"], run)
        for error in run.errors:
            print(f"error: warm-up failed: {error}", file=sys.stderr)
        return run.ok

    def run(
        self, workload: str, trace: bool = False, work_dir: Path | None = None
    ) -> ChildRun:
        """One child run of ``workload``, checked.

        Compare and cold-query runs get a fresh ``--work-dir``, removed
        afterwards; lint reads the shared corpus and warm queries the
        shared store.
        """
        run = ChildRun(workload, trace)
        shared = {"lint-cold": self._corpus, "query-warm": self._warm_store}
        private = work_dir is None and workload not in shared
        if work_dir is None:
            work_dir = shared.get(workload) or Path(tempfile.mkdtemp(dir=self.scratch))
        result = self._path("result", ".json")
        args = [
            "--workload", workload,
            "--seed", str(self.seed),
            "--trace", str(int(trace)),
            "--work-dir", str(work_dir),
            "--result", str(result),
        ]
        try:
            if self._spawn(args, run):
                run.report = json.loads(result.read_text(encoding="utf-8"))
                self._check(run)
                warm = workload == "query-warm"
                if warm and _fingerprint(work_dir) != self._warm_print:
                    run.errors.append("the warm run changed the store directory")
        finally:
            if private:
                shutil.rmtree(work_dir, ignore_errors=True)
        return run

    def _check(self, run: ChildRun) -> None:
        report = run.report
        checks = sorted(report["checks"].items())
        run.errors.extend(f"check {name} failed" for name, ok in checks if not ok)
        kind = WORKLOADS[run.workload].kind
        digest = report["digest"]
        expected = self._expected.get(kind)
        if expected is not None and digest != expected:
            run.errors.append(f"{kind} digest {digest} != committed {expected}")
        first = self._digests.setdefault(kind, digest)
        if digest != first:
            run.errors.append(f"{kind} digest {digest} != {first} of an earlier run")

    def prepare(self, workloads: list[str]) -> list[str]:
        """Extract the lint corpus and fill the warm store, as needed.

        Returns the workloads that can run.  The fill is a cold query run
        into the warm store; its rows are what every warm run must
        return, and its failure counts as a failed ``query-warm`` run.
        """
        if "lint-cold" in workloads:
            corpus.extract(self._corpus)
        if "query-warm" not in workloads:
            return workloads
        self._warm_store.mkdir()
        fill = self.run("query-cold", work_dir=self._warm_store)
        if fill.ok:
            self._warm_print = _fingerprint(self._warm_store)
            return workloads
        fill.workload = "query-warm"
        fill.errors.insert(0, "filling the warm store failed")
        self.runs.append(fill)
        return [w for w in workloads if w != "query-warm"]

    def measure(
        self, workloads: list[str], runs: int, seconds: float | None, trace: bool
    ) -> None:
        """With ``trace``, one traced run per workload; then round-robin
        rounds of timed runs: ``runs`` of them, or as many as fit in what
        is left of ``seconds``."""
        start = time.perf_counter()
        min_rounds = MIN_ROUNDS_TRACED if trace else MIN_ROUNDS
        if trace:
            self.runs.extend(self.run(workload, trace=True) for workload in workloads)
        round_s: list[float] = []
        while True:
            if seconds is None:
                if len(round_s) >= runs:
                    break
            elif len(round_s) >= min_rounds and (
                time.perf_counter() - start + statistics.median(round_s) > seconds
            ):
                break
            began = time.perf_counter()
            self.runs.extend(self.run(workload) for workload in workloads)
            round_s.append(time.perf_counter() - began)


#: Printed for every timed run but not gated (see README.md): frames or
#: files per post-set-up CPU second, wall time and raw CPU time from
#: import to the end of the workload, and the calibration loop's CPU
#: time, which shows how fast the machine ran during the set.
INFORMATIONAL: tuple[tuple[str, str], ...] = (
    ("items_per_s", "1/s"),
    ("wall_s", "s"),
    ("raw_cpu_s", "s"),
    ("calibration_s", "s"),
)


#: How strongly the workloads follow the calibration loop when the host
#: slows the machine down: their CPU time grows as the loop's time to
#: this power.  The loop is hit harder than the program.  On a shared
#: 2-vCPU VM, 0.9 kept the medians of the same ten seeds within 7% of
#: each other across one calm and two disturbed sweeps, against 20% for
#: 0.7; 1.0 did as well there but spread more within a sweep (see
#: README.md).
CALIBRATION_EXPONENT = 0.9


def _scale(report: dict[str, Any]) -> float:
    """Factor turning a run's CPU seconds into reference-speed seconds,
    from the mean of its calibration loop times before and after its
    workload."""
    loop_s = statistics.fmean(report["calibration_s"])
    return (CALIBRATION_REF_S / loop_s) ** CALIBRATION_EXPONENT


def _samples(timed: list[ChildRun]) -> dict[str, list[float]]:
    """Per-run values of every end-to-end and informational metric."""
    samples: dict[str, list[float]] = {
        name: [] for name, _ in E2E_METRICS + INFORMATIONAL
    }
    for run in timed:
        rep = run.report
        scale = _scale(rep)
        samples["cpu_s"].append(rep["inproc_cpu_s"] * scale)
        samples["setup_s"].append(rep["setup_cpu_s"] * scale)
        samples["items_per_s"].append(
            rep["items"] / ((rep["inproc_cpu_s"] - rep["setup_cpu_s"]) * scale)
        )
        samples["peak_rss_mb"].append(run.rss_mb)
        samples["wall_s"].append(rep["inproc_s"])
        samples["raw_cpu_s"].append(rep["inproc_cpu_s"])
        samples["calibration_s"].append(statistics.fmean(rep["calibration_s"]))
    return samples


def _results(runs: list[ChildRun], workload: str) -> dict[str, Any]:
    """Per-workload summaries of the end-to-end and per-layer metrics."""
    mine = [r for r in runs if r.workload == workload]
    timed = [r for r in mine if r.ok and not r.trace]
    traced = [r for r in mine if r.ok and r.trace]
    failed = sum(1 for r in mine if not r.ok)
    out: dict[str, Any] = {
        "attempted": len(mine),
        "failed": failed,
        "error_rate": failed / len(mine) if mine else 0.0,
        "digest": next((r.report["digest"] for r in mine if r.ok), None),
        "end_to_end": {},
        "per_layer": {},
        "runs": [
            {
                "trace": r.trace,
                "ok": r.ok,
                "rss_mb": r.rss_mb,
                **{
                    key: r.report[key]
                    for key in (
                        "import_s",
                        "setup_cpu_s",
                        "inproc_s",
                        "inproc_cpu_s",
                        "items",
                        "calibration_s",
                    )
                    if key in r.report
                },
            }
            for r in mine
        ],
    }
    if timed:
        samples = _samples(timed)
        out["end_to_end"] = {
            name: {**summarize(samples[name]), "unit": unit}
            for name, unit in E2E_METRICS + INFORMATIONAL
        }
    if traced and timed:
        untraced_cpu_s = statistics.median(samples["cpu_s"])
        layers = {
            name: [r.report["per_layer"].get(name, 0.0) for r in traced]
            for name, _ in PER_LAYER_METRICS
        }
        layers["bench.trace_overhead"] = [
            r.report["inproc_cpu_s"] * _scale(r.report) / untraced_cpu_s for r in traced
        ]
        out["per_layer"] = {
            name: {**summarize(layers[name]), "unit": unit}
            for name, unit in PER_LAYER_METRICS
        }
        out["missing_targets"] = sorted(
            {name for r in traced for name in r.report.get("missing", [])}
        )
    return out


def format_table(workload: str, result: dict[str, Any]) -> str:
    """Every metric of one workload: median, quartiles, count and unit."""
    lines = [f"== {workload}: {WORKLOADS[workload].why}"]
    for section in ("end_to_end", "per_layer"):
        for name, s in result[section].items():
            lines.append(
                f"  {name:<36} {s['median']:>14.6g} {s['unit']:<5} "
                f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n={s['n']}"
            )
    lines.append(
        f"  {'error_rate':<36} {result['error_rate']:>14.6g} ratio "
        f"({result['failed']} of {result['attempted']} runs failed)"
    )
    return "\n".join(lines)


def result_line(
    results: dict[str, dict[str, Any]], trace: bool, attempted: int, failed: int
) -> dict[str, Any]:
    """The closing JSON object: medians of the end-to-end metrics, or of
    the per-layer ones with ``trace``.  Names get a ``<workload>.`` prefix
    when more than one workload ran."""
    section, names = (
        ("per_layer", PER_LAYER_METRICS) if trace else ("end_to_end", E2E_METRICS)
    )
    metrics: dict[str, dict[str, Any]] = {}
    for workload, result in results.items():
        for name, unit in names:
            if name in result[section]:
                key = name if len(results) == 1 else f"{workload}.{name}"
                metrics[key] = {"value": result[section][name]["median"], "unit": unit}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def parse_args(argv: Sequence[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e",
        description="End-to-end, per-layer benchmark of the paper workload.",
    )
    parser.add_argument(
        "--workload",
        action="append",
        choices=list(WORKLOADS),
        help="workload to run (repeatable; default: all)",
    )
    parser.add_argument("--seed", type=int, default=0, help="input seed")
    parser.add_argument(
        "--runs",
        type=int,
        default=5,
        help="timed rounds (default 5; ignored with --seconds)",
    )
    parser.add_argument(
        "--seconds",
        type=float,
        default=None,
        help="measure for this long instead of --runs",
    )
    parser.add_argument(
        "--trace",
        type=int,
        nargs="?",
        const=1,
        default=0,
        choices=(0, 1),
        help="add traced runs and report the per-layer metrics",
    )
    parser.add_argument("--out", type=Path, help="also write all results here as JSON")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    return args


def main(argv: Sequence[str] | None = None) -> int:
    args = parse_args(argv)
    absent = [path for path in _REQUIRED if not (ROOT / path).is_file()]
    if absent:
        missing = ", ".join(absent)
        print(f"error: not a program checkout: {missing} missing", file=sys.stderr)
        return 2
    workloads = list(dict.fromkeys(args.workload or WORKLOADS))
    trace = bool(args.trace)
    started = time.perf_counter()
    deadline = started + TIMEOUT_S if args.seconds is not None else None
    (ROOT / WORK_DIR).mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="set-", dir=ROOT / WORK_DIR))
    try:
        bench = Bench(scratch, args.seed, deadline)
        if not bench.prime():
            return 2
        try:
            active = bench.prepare(workloads)
        except corpus.CorpusError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        bench.measure(active, args.runs, args.seconds, trace)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):  # another set is still running
            (ROOT / WORK_DIR).rmdir()

    results = {w: _results(bench.runs, w) for w in workloads}
    for workload, result in results.items():
        print(format_table(workload, result))
        for name in result.get("missing_targets", []):
            print(f"warning: {workload}: wrap target {name} not found", file=sys.stderr)
    for run in bench.runs:
        for error in run.errors:
            traced = " (traced)" if run.trace else ""
            print(f"error: {run.workload}{traced}: {error}", file=sys.stderr)
    attempted = len(bench.runs)
    failed = sum(1 for r in bench.runs if not r.ok)
    if args.out is not None:
        payload = {
            "seed": args.seed,
            "runs": args.runs if args.seconds is None else None,
            "seconds": args.seconds,
            "trace": trace,
            "wall_s": time.perf_counter() - started,
            "attempted": attempted,
            "failed": failed,
            "workloads": results,
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        args.out.write_text(text, encoding="utf-8")
    print(json.dumps(result_line(results, trace, attempted, failed)))
    return 0 if failed == 0 else 1
