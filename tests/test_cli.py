"""Unit tests for the command-line interface."""

import argparse
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import (
    _validate_backend_arguments,
    _write_obs_outputs,
    build_parser,
    main,
)
from repro.obs import Observability


class TestParser:
    def test_compare_defaults(self):
        args = build_parser().parse_args(["compare"])
        assert args.command == "compare"
        assert args.dataset == "nusc-night"
        assert args.m == 5

    def test_compare_options(self):
        args = build_parser().parse_args(
            [
                "compare",
                "--dataset",
                "bdd",
                "--frames",
                "100",
                "--trials",
                "1",
                "--m",
                "3",
                "--w1",
                "0.7",
            ]
        )
        assert args.dataset == "bdd"
        assert args.frames == 100
        assert args.w1 == 0.7
        bounds = ["--frames", "1", "--m", "6", "--w1", "1", "--retries", "1"]
        args = build_parser().parse_args(["compare", *bounds])
        assert (args.frames, args.m, args.w1, args.retries) == (1, 6, 1.0, 1)
        assert build_parser().parse_args(["compare", "--w1", "0"]).w1 == 0.0

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "--dataset", "kitti"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fault_defaults(self):
        args = build_parser().parse_args(["compare"])
        assert args.fault_profile == "none"
        assert args.fault_seed is None
        assert args.retries is None  # resolved by _validate_backend_arguments
        assert args.timeout_ms is None

    def test_fault_options(self):
        args = build_parser().parse_args(
            [
                "compare",
                "--fault-profile",
                "outage-first",
                "--fault-seed",
                "9",
                "--retries",
                "2",
                "--timeout-ms",
                "500",
            ]
        )
        assert args.fault_profile == "outage-first"
        assert args.fault_seed == 9
        assert args.retries == 2
        assert args.timeout_ms == 500.0

    def test_unknown_fault_profile_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["compare", "--fault-profile", "meltdown"]
            )


class TestRemovedFlags:
    """Inference runs on one backend, so its old selectors are unknown."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["compare", "--backend", "thread"],
            ["query", "--workers", "2", "SELECT x"],
        ],
        ids=["compare-backend", "query-workers"],
    )
    def test_backend_and_workers_are_unrecognized(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        [usage, *_, error] = capsys.readouterr().err.splitlines()
        assert usage.startswith(f"usage: repro {argv[0]} ")
        assert error.startswith(
            f"repro {argv[0]}: error: unrecognized arguments: {argv[1]} "
        )


class TestFaultFlagValidation:
    """A fault flag the run would ignore is a usage error (exit 2)."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["compare", "--retries", "9"], "--retries requires"),
            (["compare", "--fault-profile", "none", "--retries", "2"],
             "--retries requires"),
            (["query", "--retries", "2", "SELECT x"], "--retries requires"),
            (["compare", "--fault-seed", "4"], "--fault-seed requires"),
            (["compare", "--timeout-ms", "500", "--fault-seed", "4"],
             "--fault-seed requires"),
            (["query", "--fault-seed", "4", "SELECT x"], "--fault-seed requires"),
        ],
        ids=["retries", "retries-profile-none", "query-retries", "fault-seed",
             "fault-seed-timeout-only", "query-fault-seed"],
    )
    def test_flag_without_faults_rejected(self, capsys, argv, message):
        small = ["--frames", "5", "--m", "2", "--scale", "0.02"]
        with pytest.raises(SystemExit) as excinfo:
            main([argv[0], *small, *argv[1:]])
        assert excinfo.value.code == 2
        [*_, error] = capsys.readouterr().err.splitlines()
        assert error.startswith(f"repro {argv[0]}: error: {message} ")

    def test_timeout_without_faults_prints_fault_free_stdout(self, capsys):
        """A timeout no job reaches adds only the fault-stats line."""
        argv = ["compare", "--frames", "5", "--trials", "1", "--m", "2",
                "--scale", "0.02"]
        assert main(argv) == 0
        fault_free = capsys.readouterr().out
        assert main([*argv, "--timeout-ms", "500"]) == 0
        [stats, *rest] = capsys.readouterr().out.splitlines(keepends=True)
        assert stats.startswith("fault stats: attempts=")
        assert "".join(rest) == fault_free

    @pytest.mark.parametrize(
        "argv, retries",
        [
            (["compare"], 3),
            (["compare", "--fault-profile", "chaos"], 3),
            (["compare", "--fault-profile", "chaos", "--fault-seed", "4",
              "--retries", "2"], 2),
            (["query", "--timeout-ms", "500", "--retries", "1", "SELECT x"], 1),
        ],
    )
    def test_accepted_retries_resolve(self, argv, retries):
        parser = build_parser()
        args = parser.parse_args(argv)
        _validate_backend_arguments(parser, args)
        assert args.retries == retries


class TestNumberValidation:
    """Out-of-range numbers are usage errors (exit 2), not tracebacks."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["compare", "--trials=0"],
            ["compare", "--frames=-1"],
            ["compare", "--m=9"],
            ["compare", "--w1=1.5"],
            ["compare", "--scale=0"],
            ["compare", "--budget=-5"],
            ["compare", "--timeout-ms=0"],
            ["compare", "--retries=-4"],
            ["compare", "--scale=nan"],
            ["query", "--m=0", "SELECT x"],
            ["query", "--frames=0", "SELECT x"],
            ["query", "--scale=0", "SELECT x"],
            ["query", "--timeout-ms=-1", "SELECT x"],
            ["query", "--retries=0", "SELECT x"],
        ],
    )
    def test_out_of_range_rejected_at_parse_time(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        [*_, error] = capsys.readouterr().err.splitlines()
        assert error.startswith(f"repro {argv[0]}: error: argument ")
        assert "must be" in error

    def test_non_number_rejected(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "--w1", "high"])
        assert "expected a number" in capsys.readouterr().err


class TestObservabilityFlags:
    def test_obs_defaults_off(self):
        args = build_parser().parse_args(["compare"])
        assert args.obs_level == "off"
        assert args.metrics_out is None
        assert args.trace_out is None
        assert args.events_out is None

    def test_trace_out_requires_trace_level(self, capsys):
        with pytest.raises(SystemExit):
            main(["compare", "--trace-out", "t.json"])
        assert "--trace-out requires --obs-level trace" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["compare", "--obs-level", "metrics", "--trace-out", "t.json"])

    def test_metrics_out_requires_metrics_level(self, capsys):
        with pytest.raises(SystemExit):
            main(["compare", "--metrics-out", "m.prom"])
        err = capsys.readouterr().err
        assert "--metrics-out requires --obs-level" in err

    def test_events_out_requires_metrics_level(self, capsys):
        with pytest.raises(SystemExit):
            main(["query", "--events-out", "e.jsonl", "SELECT x"])
        assert "--events-out requires --obs-level" in capsys.readouterr().err

    def test_unknown_obs_level_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "--obs-level", "debug"])

    @pytest.mark.parametrize(
        "command, flag, level",
        [
            ("compare", "--csv", []),
            ("compare", "--metrics-out", ["--obs-level", "metrics"]),
            ("query", "--trace-out", ["--obs-level", "trace"]),
            ("query", "--events-out", ["--obs-level", "metrics"]),
        ],
        ids=["csv", "metrics-out", "trace-out", "events-out"],
    )
    def test_unwritable_output_rejected_before_run(
        self, capsys, tmp_path, command, flag, level
    ):
        missing = tmp_path / "nodir"
        argv = [command, *level, flag, str(missing / "out.txt")]
        if command == "query":
            argv.append("SELECT x")
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # nothing ran
        [usage, *_, error] = captured.err.splitlines()
        assert usage.startswith(f"usage: repro {command} ")
        assert error == (
            f"repro {command}: error: argument {flag}: "
            f"no such directory: {str(missing)!r}"
        )
        # A path naming a directory cannot be written either.
        argv[argv.index(flag) + 1] = str(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        [*_, error] = capsys.readouterr().err.splitlines()
        assert error == (
            f"repro {command}: error: argument {flag}: "
            f"is a directory: {str(tmp_path)!r}"
        )

    def test_compare_writes_obs_outputs(self, capsys, tmp_path):
        import json

        metrics_path = tmp_path / "metrics.json"
        trace_path = tmp_path / "trace.json"
        events_path = tmp_path / "events.jsonl"
        code = main(
            [
                "compare",
                "--dataset",
                "nusc-clear",
                "--frames",
                "10",
                "--trials",
                "1",
                "--m",
                "2",
                "--scale",
                "0.02",
                "--obs-level",
                "trace",
                "--metrics-out",
                str(metrics_path),
                "--trace-out",
                str(trace_path),
                "--events-out",
                str(events_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert f"metrics written to {metrics_path}" in out

        metrics = json.loads(metrics_path.read_text())
        frame_counters = [
            c
            for c in metrics["counters"]
            if c["name"] == "repro_frames_total"
        ]
        # One series per algorithm, 10 frames each.
        assert frame_counters
        assert all(c["value"] == 10 for c in frame_counters)

        trace = json.loads(trace_path.read_text())
        span_names = {s["name"] for s in trace["spans"]}
        assert {"trial", "frame", "select", "detect", "fuse", "score",
                "update"} <= span_names

        events = [
            json.loads(line)
            for line in events_path.read_text().splitlines()
        ]
        assert events
        assert all(e["type"] == "frame-completed" for e in events)

    def test_dropped_spans_and_events_are_reported(self, capsys, tmp_path):
        args = argparse.Namespace(
            metrics_out=None,
            trace_out=str(tmp_path / "trace.json"),
            events_out=str(tmp_path / "events.jsonl"),
        )
        obs = Observability(level="trace", max_spans=1, max_events=1)
        _write_obs_outputs(args, obs)
        assert capsys.readouterr().err == ""
        for frames in (1, 2):
            obs.add_span("detect-model", model="m")
            obs.event(
                "budget",
                algorithm="MES",
                budget_ms=10.0,
                spent_ms=5.0,
                frames=frames,
                exhausted=False,
            )
        _write_obs_outputs(args, obs)
        err = capsys.readouterr().err.splitlines()
        assert [line.split(" from ")[0] for line in err] == [
            "warning: 1 spans dropped",
            "warning: 1 events dropped",
        ]

    def test_compare_prometheus_metrics_out(self, capsys, tmp_path):
        metrics_path = tmp_path / "metrics.prom"
        code = main(
            [
                "compare",
                "--dataset",
                "nusc-clear",
                "--frames",
                "8",
                "--trials",
                "1",
                "--m",
                "2",
                "--scale",
                "0.02",
                "--obs-level",
                "metrics",
                "--metrics-out",
                str(metrics_path),
            ]
        )
        assert code == 0
        text = metrics_path.read_text()
        assert "# TYPE repro_frames_total counter" in text
        assert "repro_trials_total 1" in text


class TestCommands:
    def test_algorithms_lists_registry(self, capsys):
        assert main(["algorithms"]) == 0
        out = capsys.readouterr().out
        for name in ("mes", "sw-mes", "opt"):
            assert name in out

    def test_linter_imported_only_for_lint(self):
        # A fresh interpreter: this one has imported the linter already.
        probe = (
            "import sys, repro.cli\n"
            "imported = 'repro.lint' in sys.modules\n"
            "pools = 'concurrent.futures' in sys.modules\n"
            "repro.cli.main(['algorithms'])\n"
            "print(imported, 'repro.lint' in sys.modules, pools)\n"
        )
        src = Path(repro.__file__).resolve().parent.parent
        result = subprocess.run(
            [sys.executable, "-c", probe],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        assert result.stdout.splitlines()[-1] == "False False False"

    def test_linter_starts_without_the_detection_stack(self):
        # ``python -m repro.lint`` imports the package root first; the
        # root resolves its re-exports only when they are read.
        probe = (
            "import sys, repro.lint.cli\n"
            "print('numpy' in sys.modules, 'repro.core' in sys.modules)\n"
        )
        src = Path(repro.__file__).resolve().parent.parent
        result = subprocess.run(
            [sys.executable, "-c", probe],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        assert result.stdout.splitlines()[-1] == "False False"

    def test_root_names_resolve_to_the_objects_their_modules_define(self):
        star: dict[str, object] = {}
        exec("from repro import *", star)
        assert set(repro.__all__) <= set(star) & set(dir(repro))
        assert repro.__version__ == "1.0.0"
        for name in repro.__all__:
            value = getattr(repro, name)
            assert star[name] is value
            if name == "__version__":
                continue
            assert value.__name__ == name
            home = importlib.import_module(value.__module__)
            assert getattr(home, name) is value
        with pytest.raises(AttributeError, match="no_such_name"):
            repro.no_such_name  # noqa: B018 -- the lookup is the test

    def test_compare_runs_small(self, capsys, tmp_path):
        csv_path = tmp_path / "out.csv"
        code = main(
            [
                "compare",
                "--dataset",
                "nusc-clear",
                "--frames",
                "25",
                "--trials",
                "1",
                "--m",
                "2",
                "--scale",
                "0.02",
                "--csv",
                str(csv_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "MES" in out and "OPT" in out
        assert csv_path.exists()
        assert "algorithm,trial" in csv_path.read_text()

    def test_compare_with_fault_profile(self, capsys):
        code = main(
            [
                "compare",
                "--dataset",
                "nusc-clear",
                "--frames",
                "20",
                "--trials",
                "1",
                "--m",
                "2",
                "--scale",
                "0.02",
                "--fault-profile",
                "flaky-first",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "MES" in out
        assert "fault stats:" in out

    def test_query_runs_small(self, capsys):
        code = main(
            [
                "query",
                "--dataset",
                "nusc-clear",
                "--frames",
                "20",
                "--m",
                "2",
                "--scale",
                "0.02",
                "SELECT frameID FROM (PROCESS video PRODUCE frameID, "
                "Detections USING BF(yolov7-tiny-clear)) WHERE frameID < 5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "frame ids: [0, 1, 2, 3, 4]" in out


class TestQueryCliEndToEnd:
    QUERY = (
        "SELECT frameID FROM (PROCESS video PRODUCE frameID, Detections "
        "USING BF(yolov7-tiny-clear, yolov7-tiny-night)) WHERE frameID < 8"
    )
    SMALL = ["--dataset", "nusc-clear", "--frames", "20", "--m", "2",
             "--scale", "0.02"]

    def _run(self, capsys, *extra):
        code = main(["query", *self.SMALL, *extra, self.QUERY])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_frame_ids_match_the_predicate(self, capsys):
        code, out, _ = self._run(capsys)
        assert code == 0
        ids = next(
            line for line in out.splitlines() if line.startswith("frame ids:")
        )
        assert ids == f"frame ids: {list(range(8))}"

    def test_explain_flag_prints_plans_without_running(self, capsys):
        code, out, _ = self._run(capsys, "--explain")
        assert code == 0
        assert "logical plan:" in out
        assert "physical plan:" in out
        assert "predicate pushdown" in out
        assert "projection pruning" in out
        assert "frame ids:" not in out  # nothing executed

    def test_explain_prefix_equivalent_to_flag(self, capsys):
        code = main(["query", *self.SMALL, f"EXPLAIN {self.QUERY}"])
        prefixed = capsys.readouterr().out
        _, flagged, _ = self._run(capsys, "--explain")
        assert code == 0
        assert prefixed == flagged

    def test_parse_error_prints_caret_and_exits_2(self, capsys):
        text = "SELECT frameID FORM (PROCESS v PRODUCE frameID USING BF(m))"
        code = main(["query", *self.SMALL, text])
        captured = capsys.readouterr()
        assert code == 2
        lines = captured.err.splitlines()
        assert lines[0].startswith("error: ")
        assert lines[1] == f"  {text}"
        assert lines[2].index("^") - 2 == text.index("FORM")

    @pytest.mark.parametrize(
        "text, store, fragments",
        [
            (QUERY.replace("USING BF(yolov7-tiny-clear, yolov7-tiny-night))",
                           "USING MES(yolov7-tiny-clear) WITH gama=3)"),
             None, ["does not take WITH gama"]),
            (QUERY.replace("yolov7-tiny-night", "no-such-model"),
             None, ["unknown detector 'no-such-model'"]),
            (QUERY.replace("PROCESS video", "PROCESS elsewhere"),
             None, ["unknown video 'elsewhere'"]),
            (QUERY, "v1", ["has format_version 1", "reads only format_version 3"]),
            (QUERY, "file", ["cannot create materialized store", "File exists"]),
            (QUERY.replace("USING BF(yolov7-tiny-clear, yolov7-tiny-night))",
                           "USING MES-B(yolov7-tiny-clear, yolov7-tiny-night) "
                           "WITH budget=0)"),
             None, ["WITH budget must be a positive finite number, got 0"]),
            (QUERY.replace("SELECT frameID", "SELECT score"),
             None, ["SELECT column 'score' is not produced"]),
            (QUERY.replace("WHERE frameID < 8",
                           "WHERE COUNT('car') >= 1 FOR AT LEAST 0 FRAMES"),
             None, ["FOR AT LEAST needs at least 1 frame, got 0"]),
            (QUERY.replace("USING BF(yolov7-tiny-clear, yolov7-tiny-night))",
                           "USING MES(yolov7-tiny-clear, yolov7-tiny-clear; "
                           "lidar-ref))"),
             None, ["detector 'yolov7-tiny-clear' is listed more than once"]),
        ],
        ids=["unknown-with-key", "unknown-detector", "unregistered-video",
             "v1-store", "file-store", "zero-budget", "select-not-produced",
             "zero-duration", "repeated-model"],
    )
    def test_plan_and_store_errors_print_one_line_and_exit_2(
        self, capsys, tmp_path, text, store, fragments
    ):
        extra = []
        if store == "v1":
            (tmp_path / "MANIFEST.json").write_text('{"format_version": 1}\n')
        elif store == "file":
            tmp_path = tmp_path / "store.txt"
            tmp_path.write_text("")
        if store is not None:
            extra = ["--materialize-dir", str(tmp_path)]
            fragments = [str(tmp_path), *fragments]
        code = main(["query", *self.SMALL, *extra, text])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: ")
        for fragment in fragments:
            assert fragment in line

    def test_materialize_dir_warm_run_reuses_everything(self, capsys, tmp_path):
        mat = ["--materialize-dir", str(tmp_path / "mat")]
        code_cold, out_cold, _ = self._run(capsys, *mat)
        code_warm, out_warm, _ = self._run(capsys, *mat)
        assert code_cold == code_warm == 0
        cold_stats = next(
            line for line in out_cold.splitlines()
            if line.startswith("materialized store:")
        )
        warm_stats = next(
            line for line in out_warm.splitlines()
            if line.startswith("materialized store:")
        )
        assert "hit rate 0.00" in cold_stats
        assert "0 new" in warm_stats  # every value came from the store
        assert "hit rate 1.00" in warm_stats
        # Bit-identical result rows, cold or warm.
        frame_lines = [
            next(line for line in out.splitlines()
                 if line.startswith("frame ids:"))
            for out in (out_cold, out_warm)
        ]
        assert frame_lines[0] == frame_lines[1]
