"""Tests of the end-to-end benchmark's own machinery.

Run with ``PYTHONPATH=src:. python -m pytest -q benchmarks/e2e``.
"""

from __future__ import annotations

import json
import statistics
import types
from pathlib import Path

import pytest

from benchmarks.e2e import child, run, spec
from benchmarks.e2e.selftime import Patcher, SelfTimer

ROOT = Path(__file__).resolve().parents[2]


class FakeClock:
    """Time moves only when a test says so."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def spend(self, seconds: float) -> None:
        self.now += seconds


def test_nested_wrappers_charge_self_time():
    clock = FakeClock()
    timer = SelfTimer(clock)
    inner = timer.wrap("inner", lambda: clock.spend(2.0))

    def outer_body():
        clock.spend(1.0)
        inner()
        inner()
        clock.spend(3.0)

    timer.wrap("outer", outer_body)()
    assert timer.self_s == {"outer": 4.0, "inner": 4.0}
    assert timer.calls == {"outer": 1, "inner": 2}
    assert timer.bookkeeping_s == 0.0


def test_same_layer_nesting_counts_each_second_once():
    clock = FakeClock()
    timer = SelfTimer(clock)
    leaf = timer.wrap("store", lambda: clock.spend(1.0))

    def get_or_compute():
        clock.spend(0.5)
        leaf()

    timer.wrap("store", get_or_compute)()
    assert timer.self_s["store"] == 1.5
    assert timer.calls["store"] == 2


def test_after_hooks_count_as_bookkeeping_not_self_time():
    clock = FakeClock()
    timer = SelfTimer(clock)
    seen = []

    def hook(result, args, kwargs):
        seen.append((result, args, kwargs))
        clock.spend(5.0)

    callee = timer.wrap("callee", lambda x, y=0: clock.spend(1.0) or x + y, after=hook)
    caller = timer.wrap("caller", lambda: callee(1, y=2))
    caller()
    assert timer.self_s == {"caller": 0.0, "callee": 1.0}
    assert timer.bookkeeping_s == 5.0
    assert seen == [(3, (1,), {"y": 2})]


def test_exceptions_still_close_the_frame():
    clock = FakeClock()
    timer = SelfTimer(clock)

    def boom():
        clock.spend(2.0)
        raise ValueError("boom")

    failing = timer.wrap("failing", boom)

    def caller():
        clock.spend(1.0)
        with pytest.raises(ValueError):
            failing()

    timer.wrap("caller", caller)()
    assert timer.self_s == {"caller": 1.0, "failing": 2.0}


def test_generators_are_timed_through_consumption():
    clock = FakeClock()
    timer = SelfTimer(clock)

    def produce():
        clock.spend(1.0)
        yield "a"
        clock.spend(2.0)
        yield "b"
        clock.spend(4.0)

    produce_wrapped = timer.wrap("rules", produce)

    def consume():
        items = []
        for item in produce_wrapped():
            clock.spend(10.0)
            items.append(item)
        return items

    assert timer.wrap("engine", consume)() == ["a", "b"]
    assert timer.self_s == {"rules": 7.0, "engine": 20.0}
    assert timer.calls == {"rules": 1, "engine": 1}


class _Base:
    def method(self):
        return "base"


class _Child(_Base):
    @classmethod
    def make(cls):
        return cls.__name__

    @staticmethod
    def double(x):
        return 2 * x


def test_patcher_wraps_every_kind_and_restores_originals():
    module = types.ModuleType("fake")
    module.func = lambda: "func"
    originals = {
        "func": module.func,
        "make": vars(_Child)["make"],
        "double": vars(_Child)["double"],
    }
    calls = []

    def make_wrapper(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)

        return wrapper

    patcher = Patcher()
    targets = [(module, "func")] + [(_Child, n) for n in ("make", "double", "method")]
    for owner, name in targets:
        assert patcher.replace(owner, name, make_wrapper)
    assert not patcher.replace(_Child, "absent", make_wrapper)
    assert (module.func(), _Child.make(), _Child.double(3), _Child().method()) == (
        "func",
        "_Child",
        6,
        "base",
    )
    assert calls == ["<lambda>", "make", "double", "method"]
    assert isinstance(vars(_Child)["make"], classmethod)
    assert isinstance(vars(_Child)["double"], staticmethod)

    patcher.restore()
    assert module.func is originals["func"]
    assert vars(_Child)["make"] is originals["make"]
    assert vars(_Child)["double"] is originals["double"]
    assert "method" not in vars(_Child)
    assert _Child().method() == "base"


#: Reduced sizes: seconds per workload instead of the benchmark's minutes.
SMALL = {
    spec.COMPARE: {"scale": 0.02, "frames": 20, "trials": 1},
    spec.QUERY: {"scale": 0.02, "frames": 30},
}


@pytest.mark.parametrize(
    "workload", ["compare-night", "compare-night-trace", "query-cold"]
)
def test_traced_and_untraced_runs_agree(workload, tmp_path):
    from repro.engine.store import EvaluationStore

    sizes = SMALL[spec.WORKLOADS[workload].kind]
    reports = {}
    for trace in (False, True):
        work_dir = tmp_path / str(trace)
        work_dir.mkdir()
        reports[trace] = child.execute(workload, 0, work_dir, trace, sizes=sizes)
    plain, traced = reports[False], reports[True]
    assert plain["digest"] == traced["digest"]
    assert plain["checks"] and all(plain["checks"].values())
    assert all(traced["checks"].values())
    assert traced["missing"] == []
    layer_names = {name for name, _ in spec.PER_LAYER_METRICS}
    assert set(traced["per_layer"]) == layer_names - {"bench.trace_overhead"}
    assert not hasattr(EvaluationStore.get, "__wrapped__")


def test_self_times_partition_the_traced_run(tmp_path):
    sizes = SMALL[spec.COMPARE]
    report = child.execute("compare-night", 0, tmp_path, True, sizes=sizes)
    layers = report["per_layer"]
    timed = sum(value for name, value in layers.items() if name.endswith("_s"))
    # Only the few microseconds around the root frame are outside it.
    assert timed == pytest.approx(report["inproc_s"], abs=1e-3)
    workload_s = report["inproc_s"] - report["import_s"]
    assert layers["bench.unattributed_s"] <= 0.1 * workload_s


def _benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_matches_the_code():
    declared = _benchmark_json()
    assert [(w["name"], w["why"]) for w in declared["workloads"]] == [
        (w.name, w.why) for w in spec.WORKLOADS.values()
    ]
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == list(
        spec.E2E_METRICS
    )
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == list(
        spec.PER_LAYER_METRICS
    )


def _fake_results():
    def summary(unit):
        return {"median": 1.5, "q1": 1.0, "q3": 2.0, "n": 3, "unit": unit}

    return {
        "attempted": 4,
        "failed": 0,
        "error_rate": 0.0,
        "end_to_end": {name: summary(unit) for name, unit in spec.E2E_METRICS},
        "per_layer": {name: summary(unit) for name, unit in spec.PER_LAYER_METRICS},
    }


def test_every_declared_metric_is_printed_with_its_unit():
    declared = _benchmark_json()
    table = run.format_table("compare-night", _fake_results())
    rows = {line.split()[0]: line.split() for line in table.splitlines()[1:]}
    for metric in declared["end_to_end"] + declared["per_layer"]:
        assert metric["unit"] in rows[metric["name"]], metric["name"]

    results = {"compare-night": _fake_results()}
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        line = run.result_line(results, trace, attempted=4, failed=0)
        assert line["correct"] is True
        assert {
            name: value["unit"] for name, value in line["metrics"].items()
        } == {m["name"]: m["unit"] for m in declared[section]}


def test_summarize_uses_statistics_quartiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    assert run.summarize(values) == {"median": median, "q1": q1, "q3": q3, "n": 5}
    assert run.summarize([2.0]) == {"median": 2.0, "q1": 2.0, "q3": 2.0, "n": 1}


def test_cpu_times_are_scaled_by_the_calibration_loop():
    ref = child.CALIBRATION_REF_S
    at_ref = {"calibration_s": [ref, ref]}
    slowed = {"calibration_s": [1.5 * ref, 2.5 * ref]}  # mean: twice as slow
    assert run._scale(at_ref) == pytest.approx(1.0)
    assert run._scale(slowed) == pytest.approx(0.5**run.CALIBRATION_EXPONENT)
