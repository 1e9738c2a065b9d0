"""Command-line interface: run comparisons, queries and dataset reports.

Usage (after ``pip install -e .``)::

    python -m repro compare --dataset nusc-night --frames 600 --trials 2
    python -m repro query   --dataset nusc-clear --frames 300 \\
        "SELECT frameID FROM (PROCESS video PRODUCE frameID, Detections \\
         USING MES(yolov7-tiny-clear, yolov7-tiny-night, yolov7-tiny-rainy; \\
         lidar-ref) WITH gamma=5) WHERE COUNT('car') >= 2"
    python -m repro datasets
    python -m repro algorithms
"""

from __future__ import annotations

import argparse
import math
import sys
from collections.abc import Callable, Sequence
from pathlib import Path
from typing import Any

from repro.core.scoring import WeightedLogScore
from repro.engine.backends import ExecutionBackend, SerialBackend, wall_timer
from repro.engine.resilience import ResilientBackend
from repro.obs import (
    NULL_OBS,
    OBS_LEVELS,
    Observability,
    write_events_jsonl,
    write_metrics,
    write_trace_json,
)
from repro.query.executor import QueryEngine
from repro.query.matstore import MaterializationError
from repro.query.parser import ParseError, format_parse_error
from repro.query.planner import PlanError, algorithm_registry
from repro.runner.experiment import MAX_POOL_SIZE, dataset_keys, standard_setup
from repro.runner.harness import compare_algorithms
from repro.runner.io import save_outcomes_csv
from repro.runner.reporting import format_table
from repro.simulation.datasets import build_bdd_like, build_nuscenes_like
from repro.simulation.faults import FAULT_PROFILE_NAMES

__all__ = ["main", "build_parser"]


def _argument_type(
    convert: type[int] | type[float], accept: Callable[[Any], bool], expected: str
) -> Callable[[str], Any]:
    """An argparse type: ``convert`` the text, then require ``accept``.

    Either failure is a usage error (exit 2), so an out-of-range number
    never reaches the run.
    """
    noun = "an integer" if convert is int else "a number"

    def parse(text: str) -> Any:
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {noun}, got {text!r}") from None
        if not accept(value):
            raise argparse.ArgumentTypeError(f"must be {expected}, got {value}")
        return value

    return parse


_positive_int = _argument_type(int, lambda n: n >= 1, "a positive integer")
_pool_size = _argument_type(
    int, lambda n: 1 <= n <= MAX_POOL_SIZE, f"an integer in [1, {MAX_POOL_SIZE}]"
)
_positive_number = _argument_type(
    float, lambda x: 0.0 < x < math.inf, "a positive finite number"
)
_weight = _argument_type(float, lambda x: 0.0 <= x <= 1.0, "a number in [0, 1]")


def _output_file(text: str) -> str:
    """An argparse type: a file path in a directory that exists.

    A missing directory, or a path naming a directory, is a usage error
    (exit 2) before the run starts, not a traceback after it finished.
    """
    path = Path(text)
    if not path.parent.is_dir():
        raise argparse.ArgumentTypeError(f"no such directory: {str(path.parent)!r}")
    if path.is_dir():
        raise argparse.ArgumentTypeError(f"is a directory: {text!r}")
    return text


#: Default attempts per inference job when ``--retries`` is absent.
_DEFAULT_RETRIES = 3


def _add_backend_arguments(parser: argparse.ArgumentParser) -> None:
    """The execution-engine flags shared by ``compare`` and ``query``.

    The subcommand's parser rides along in the namespace, so a flag
    combination :func:`_validate_backend_arguments` rejects is reported
    with the subcommand's usage line.
    """
    parser.set_defaults(command_parser=parser)
    parser.add_argument(
        "--fault-profile",
        default="none",
        choices=FAULT_PROFILE_NAMES,
        help=(
            "inject seeded detector faults (transients, outages, latency "
            "spikes, degraded outputs); runs through the resilient "
            "execution layer and degrades gracefully"
        ),
    )
    parser.add_argument(
        "--fault-seed",
        type=int,
        default=None,
        help=(
            "root seed of the fault streams (derived per trial by default); "
            "requires --fault-profile"
        ),
    )
    parser.add_argument(
        "--retries",
        type=_positive_int,
        default=None,
        help=(
            f"total attempts per inference job (default {_DEFAULT_RETRIES}; "
            "1 disables retries); requires --fault-profile or --timeout-ms"
        ),
    )
    parser.add_argument(
        "--timeout-ms",
        type=_positive_number,
        default=None,
        help=(
            "per-job simulated-latency timeout; over-latency outputs are "
            "discarded like a serving system cancelling stragglers"
        ),
    )
    parser.add_argument(
        "--obs-level",
        default="off",
        choices=OBS_LEVELS,
        help=(
            "observability level: 'metrics' records counters/histograms "
            "and structured events, 'trace' adds nested per-frame spans; "
            "'off' (default) is zero-cost"
        ),
    )
    parser.add_argument(
        "--metrics-out",
        type=_output_file,
        default=None,
        help=(
            "write the final metrics snapshot here (.prom/.txt for "
            "Prometheus text format, anything else for JSON); requires "
            "--obs-level metrics or trace"
        ),
    )
    parser.add_argument(
        "--trace-out",
        type=_output_file,
        default=None,
        help="write finished spans as JSON; requires --obs-level trace",
    )
    parser.add_argument(
        "--events-out",
        type=_output_file,
        default=None,
        help=(
            "write structured run events as JSONL; requires --obs-level "
            "metrics or trace"
        ),
    )


def _validate_backend_arguments(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> None:
    """Reject inconsistent fault/observability flags at parse time.

    A flag the run would ignore (``--retries`` or ``--fault-seed`` on a
    run that injects no faults, an output file of a level that records
    nothing) errors instead of being silently dropped.
    """
    faulty = args.fault_profile != "none"
    if args.retries is not None and not (faulty or args.timeout_ms is not None):
        parser.error(
            "--retries requires --fault-profile or --timeout-ms "
            "(a run without them retries nothing)"
        )
    if args.retries is None:
        args.retries = _DEFAULT_RETRIES
    if args.fault_seed is not None and not faulty:
        parser.error(
            "--fault-seed requires --fault-profile "
            "(a run without faults draws no fault stream)"
        )
    if args.trace_out is not None and args.obs_level != "trace":
        parser.error("--trace-out requires --obs-level trace")
    if args.metrics_out is not None and args.obs_level == "off":
        parser.error("--metrics-out requires --obs-level metrics or trace")
    if args.events_out is not None and args.obs_level == "off":
        parser.error("--events-out requires --obs-level metrics or trace")


def _make_obs(args: argparse.Namespace) -> Observability:
    """The run's observability facade, per ``--obs-level``."""
    if args.obs_level == "off":
        return NULL_OBS
    return Observability(level=args.obs_level, timer=wall_timer)


def _write_obs_outputs(args: argparse.Namespace, obs: Observability) -> None:
    """Export metrics / trace / events to the requested files.

    The tracer and the event log keep only their newest records; a file
    that lost any gets a ``warning:`` line on stderr.
    """
    if args.metrics_out:
        write_metrics(args.metrics_out, obs.snapshot())
        print(f"metrics written to {args.metrics_out}")
    if args.trace_out and obs.tracer is not None:
        write_trace_json(args.trace_out, obs.tracer)
        print(f"trace written to {args.trace_out}")
        _warn_dropped(obs.tracer.dropped, "spans", args.trace_out)
    if args.events_out and obs.events is not None:
        write_events_jsonl(args.events_out, obs.events)
        print(f"events written to {args.events_out}")
        _warn_dropped(obs.events.dropped, "events", args.events_out)


def _warn_dropped(dropped: int, records: str, path: str) -> None:
    if dropped:
        print(
            f"warning: {dropped} {records} dropped from {path}: "
            f"only the newest are kept",
            file=sys.stderr,
        )


def _open_backend(
    args: argparse.Namespace, obs: Observability = NULL_OBS
) -> ExecutionBackend:
    """Build the (possibly resilient) backend the run will own.

    Fault injection implies the resilient wrapper; so does an explicit
    timeout.
    """
    resilient = args.fault_profile != "none" or args.timeout_ms is not None
    backend = SerialBackend(obs=obs)
    if not resilient:
        return backend
    return ResilientBackend(
        backend, max_attempts=args.retries, timeout_ms=args.timeout_ms, obs=obs
    )


def _print_fault_stats(backend: ExecutionBackend) -> None:
    if not isinstance(backend, ResilientBackend):
        return
    stats = backend.stats()
    print(
        "fault stats: "
        + ", ".join(f"{k}={v}" for k, v in stats.as_dict().items() if v)
    )


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Ensembling Object Detectors for Effective "
            "Video Query Processing' (EDBT 2025)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compare = sub.add_parser(
        "compare", help="run the algorithm comparison on one dataset"
    )
    compare.add_argument(
        "--dataset", default="nusc-night", choices=dataset_keys()
    )
    compare.add_argument("--frames", type=_positive_int, default=600)
    compare.add_argument("--trials", type=_positive_int, default=2)
    compare.add_argument("--m", type=_pool_size, default=5, help="detector pool size")
    compare.add_argument(
        "--w1", type=_weight, default=0.5, help="accuracy weight of Eq. 30"
    )
    compare.add_argument(
        "--scale", type=_positive_number, default=0.2, help="dataset scene-count scale"
    )
    compare.add_argument(
        "--budget", type=_positive_number, default=None, help="TCVI budget in ms"
    )
    compare.add_argument(
        "--csv",
        type=_output_file,
        default=None,
        help="write per-trial results to this CSV file",
    )
    _add_backend_arguments(compare)

    query = sub.add_parser("query", help="run a video query")
    query.add_argument("text", help="the query string")
    query.add_argument(
        "--dataset", default="nusc-clear", choices=dataset_keys()
    )
    query.add_argument("--frames", type=_positive_int, default=300)
    query.add_argument("--m", type=_pool_size, default=3)
    query.add_argument("--scale", type=_positive_number, default=0.1)
    query.add_argument(
        "--video-name",
        default="video",
        help="name under which the video is registered",
    )
    query.add_argument(
        "--explain",
        action="store_true",
        help=(
            "print the logical plan (with applied rewrites) and the "
            "physical plan instead of executing; equivalent to prefixing "
            "the query with EXPLAIN"
        ),
    )
    query.add_argument(
        "--materialize-dir",
        default=None,
        help=(
            "directory of the persistent materialized detection store; "
            "overlapping queries (across runs and processes) reuse "
            "already-paid detector/REF inference and AP values from it "
            "with bit-identical results"
        ),
    )
    _add_backend_arguments(query)

    sub.add_parser("datasets", help="print the Table 1 / Table 2 summaries")
    sub.add_parser("algorithms", help="list selection algorithms")

    # Listed for --help only: main() hands ``lint`` to repro.lint.cli
    # before parsing, so the linter is imported only when it runs.
    sub.add_parser(
        "lint",
        add_help=False,
        help="run the determinism & concurrency static analysis (RPR rules)",
    )
    return parser


def _run_compare(args: argparse.Namespace) -> int:
    from repro.core.baselines import (
        BruteForce,
        ExploreFirst,
        Oracle,
        RandomSelection,
        SingleBest,
    )
    from repro.core.mes import MES

    algorithms = {
        "OPT": Oracle,
        "BF": BruteForce,
        "SGL": SingleBest,
        "RAND": RandomSelection,
        "EF": ExploreFirst,
        "MES": MES,
    }
    obs = _make_obs(args)
    with _open_backend(args, obs) as backend:
        outcomes = compare_algorithms(
            lambda trial: standard_setup(
                args.dataset,
                trial=trial,
                scale=args.scale,
                m=args.m,
                max_frames=args.frames,
                fault_profile=args.fault_profile,
                fault_seed=args.fault_seed,
            ),
            algorithms,
            num_trials=args.trials,
            scoring=WeightedLogScore(accuracy_weight=args.w1),
            budget_ms=args.budget,
            backend=backend,
            obs=obs,
        )
        _print_fault_stats(backend)
    rows = []
    for name, outcome in outcomes.items():
        stats = outcome.stats("s_sum")
        rows.append(
            {
                "algorithm": name,
                "s_sum_mean": stats.mean,
                "std": stats.std,
                "min": stats.min,
                "max": stats.max,
                "mean_AP": outcome.stats("mean_ap").mean,
            }
        )
    print(
        format_table(
            rows,
            precision=2,
            title=(
                f"{args.dataset}: m={args.m}, w1={args.w1}, "
                f"{args.frames} frames, {args.trials} trials"
            ),
        )
    )
    if args.csv:
        save_outcomes_csv(outcomes, args.csv)
        print(f"\nper-trial rows written to {args.csv}")
    _write_obs_outputs(args, obs)
    return 0


def _run_query(args: argparse.Namespace) -> int:
    setup = standard_setup(
        args.dataset, trial=0, scale=args.scale, m=args.m,
        max_frames=args.frames,
        fault_profile=args.fault_profile,
        fault_seed=args.fault_seed,
    )
    obs = _make_obs(args)
    with _open_backend(args, obs) as backend:
        try:
            engine = QueryEngine(
                backend=backend, obs=obs, materialize_dir=args.materialize_dir
            )
        except MaterializationError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        with engine:
            engine.register_video(args.video_name, setup.frames)
            for detector in setup.detectors:
                engine.register_detector(detector)
            engine.register_reference(setup.reference)
            try:
                plan = engine.plan(args.text)
            except ParseError as error:
                print(format_parse_error(error, args.text), file=sys.stderr)
                return 2
            except PlanError as error:
                print(f"error: {error}", file=sys.stderr)
                return 2
            if args.explain or plan.query.explain:
                print(engine.explain(args.text))
                return 0
            result = engine.execute(args.text)
            _print_fault_stats(backend)
            if engine.matstore is not None:
                stats = engine.matstore.stats()
                print(
                    f"materialized store: {stats.records} records, "
                    f"hit rate {stats.hit_rate:.2f} "
                    f"({stats.hits} hits, {stats.stores} new)"
                )
    print(
        f"{len(result)} of {result.selection.frames_processed} processed "
        f"frames match"
    )
    print("frame ids:", result.frame_ids())
    _write_obs_outputs(args, obs)
    return 0


def _run_datasets(args: argparse.Namespace) -> int:
    for name, builder in (
        ("Table 1 — nuScenes-like", build_nuscenes_like),
        ("Table 2 — BDD-like", build_bdd_like),
    ):
        data = builder(seed=0, scale=1.0)
        print(format_table(data.summary(), title=name))
        print()
    return 0


def _run_algorithms(args: argparse.Namespace) -> int:
    print("algorithms accepted by the query language / planner:")
    for name in algorithm_registry():
        print(f"  {name}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["lint"]:
        from repro.lint.cli import main as lint_main

        return lint_main(argv[1:])
    parser = build_parser()
    args, unrecognized = parser.parse_known_args(argv)
    if unrecognized:
        # Reported by the subcommand's parser, so its usage line lists
        # the options that do exist.
        getattr(args, "command_parser", parser).error(
            f"unrecognized arguments: {' '.join(unrecognized)}"
        )
    if args.command in ("compare", "query"):
        _validate_backend_arguments(args.command_parser, args)
    handlers = {
        "compare": _run_compare,
        "query": _run_query,
        "datasets": _run_datasets,
        "algorithms": _run_algorithms,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
