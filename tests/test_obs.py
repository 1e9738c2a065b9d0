"""Unit tests for the observability layer (tracer, metrics, events, export)."""

from __future__ import annotations

import json
import sys
import threading

import pytest

import repro.obs.metrics as metrics_module
from repro.obs import (
    EVENT_SCHEMAS,
    NULL_OBS,
    NULL_SPAN,
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
    Observability,
    RunEventLog,
    Tracer,
    metrics_to_json,
    metrics_to_prometheus,
    write_events_jsonl,
    write_metrics,
    write_trace_json,
)


class TestTracer:
    def test_nesting_parents_spans(self):
        tracer = Tracer()
        with tracer.span("frame", iteration=1) as frame:
            with tracer.span("select") as select:
                pass
            with tracer.span("detect"):
                tracer.add_span("detect-model", sim_ms=5.0, model="m")
        spans = {s.name: s for s in tracer.finished()}
        assert spans["select"].parent_id == frame.span_id
        assert spans["detect"].parent_id == frame.span_id
        assert spans["detect-model"].parent_id == spans["detect"].span_id
        assert frame.parent_id is None
        assert select.attributes == {}
        assert spans["frame"].attributes == {"iteration": 1}

    def test_children_recorded_before_parents(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        assert [s.name for s in tracer.finished()] == ["inner", "outer"]

    def test_exception_marks_error_status(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("bad"):
                raise RuntimeError("boom")
        [span] = tracer.finished()
        assert span.status == "error"

    def test_injected_timer_measures_wall_ms(self):
        ticks = iter([1.0, 1.5])
        tracer = Tracer(timer=lambda: next(ticks))
        with tracer.span("work"):
            pass
        [span] = tracer.finished()
        assert span.wall_ms == pytest.approx(500.0)

    def test_no_timer_records_zero_wall_ms(self):
        tracer = Tracer()
        with tracer.span("work"):
            pass
        assert tracer.finished()[0].wall_ms == 0.0

    def test_sim_ms_is_explicit(self):
        tracer = Tracer()
        with tracer.span("frame") as span:
            span.set_sim_ms(42.0)
        assert tracer.finished()[0].sim_ms == 42.0

    def test_retention_bound_drops_oldest(self):
        tracer = Tracer(max_spans=3)
        for i in range(5):
            with tracer.span(f"s{i}"):
                pass
        assert tracer.dropped == 2
        assert [s.name for s in tracer.finished()] == ["s2", "s3", "s4"]

    def test_max_spans_validated(self):
        with pytest.raises(ValueError):
            Tracer(max_spans=0)

    def test_null_span_mutators_are_inert(self):
        NULL_SPAN.set(foo=1)
        NULL_SPAN.set_sim_ms(99.0)
        NULL_SPAN.set_status("error")
        assert NULL_SPAN.attributes == {}
        assert NULL_SPAN.sim_ms == 0.0
        assert NULL_SPAN.status == "ok"


class TestMetrics:
    def test_counter_labels_separate_series(self):
        registry = MetricsRegistry()
        registry.counter("jobs", model="a").inc()
        registry.counter("jobs", model="a").inc(2.0)
        registry.counter("jobs", model="b").inc()
        snap = registry.snapshot()
        assert snap.counter_value("jobs", model="a") == 3.0
        assert snap.counter_value("jobs", model="b") == 1.0
        assert snap.counter_total("jobs") == 4.0
        assert snap.counter_value("jobs", model="zzz") == 0.0

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError, match="only go up"):
            MetricsRegistry().counter("c").inc(-1.0)

    def test_gauge_last_write_wins(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(5.0)
        registry.gauge("g").set(2.0)
        registry.gauge("g").add(1.0)
        assert registry.snapshot().gauge_value("g") == 3.0

    def test_histogram_bucket_placement(self):
        hist = Histogram(buckets=(1.0, 5.0, 10.0))
        for value in (0.5, 1.0, 3.0, 10.0, 99.0):
            hist.observe(value)
        snap = hist.snapshot()
        # value <= bound lands in the bucket; 99.0 overflows to +Inf.
        assert snap.counts == (2, 1, 1, 1)
        assert snap.count == 5
        assert snap.total == pytest.approx(113.5)

    def test_histogram_buckets_validated(self):
        with pytest.raises(ValueError):
            Histogram(buckets=())
        with pytest.raises(ValueError):
            Histogram(buckets=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram(buckets=(5.0, 1.0))

    def test_snapshot_is_immutable_view(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        snap = registry.snapshot()
        registry.counter("c").inc()
        assert snap.counter_value("c") == 1.0
        with pytest.raises(TypeError):
            snap.counters[("c", ())] = 99.0  # type: ignore[index]

    def test_first_description_wins(self):
        registry = MetricsRegistry()
        registry.counter("c", "first")
        registry.counter("c", "second")
        assert registry.snapshot().descriptions["c"] == "first"

    def test_series_resolved_once_per_spelling(self, monkeypatch):
        calls = []
        labelset = metrics_module.labelset

        def counting_labelset(labels):
            calls.append(dict(labels))
            return labelset(labels)

        monkeypatch.setattr(metrics_module, "labelset", counting_labelset)
        registry = MetricsRegistry()
        counter = registry.counter("x", stage="a")
        for _ in range(999):
            assert registry.counter("x", stage="a") is counter
        counter.inc()
        assert calls == [{"stage": "a"}]

    def test_labels_compare_as_strings(self):
        registry = MetricsRegistry()
        registry.counter("x", n=1).inc()
        registry.counter("x", n="1").inc()
        registry.counter("x", n=True).inc()
        registry.counter("x", n=1).inc()
        snap = registry.snapshot()
        assert snap.counter_value("x", n="1") == 3.0
        assert snap.counter_value("x", n="True") == 1.0
        assert registry.counter("x", n=1) is registry.counter("x", n="1")
        assert registry.counter("x", n=1) is not registry.counter("x", n=True)

    def test_keyword_order_is_one_series_and_first_description_wins(self):
        registry = MetricsRegistry()
        registry.counter("c", a=1, b=2).inc()
        registry.counter("c", "first", b=2, a=1).inc()
        registry.counter("c", "second", a=1, b=2).inc()
        registry.histogram("h", description="", a=1, b=2).observe(1.0)
        registry.histogram("h", description="late", b=2, a=1).observe(2.0)
        registry.histogram("h", description="later", b=2, a=1).observe(3.0)
        snap = registry.snapshot()
        assert snap.counters == {("c", (("a", "1"), ("b", "2"))): 3.0}
        hist = snap.histogram_snapshot("h", a=1, b=2)
        assert hist is not None and hist.count == 3
        assert snap.descriptions == {"c": "first", "h": "late"}

    def test_threads_racing_on_a_new_series_share_it(self):
        registry = MetricsRegistry()
        threads, series = 8, 500
        barrier = threading.Barrier(threads, timeout=10.0)

        def work():
            barrier.wait()
            for stage in range(series):
                registry.counter("raced", stage=stage).inc()

        workers = [threading.Thread(target=work) for _ in range(threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        counters = registry.snapshot().counters
        assert len(counters) == series
        assert set(counters.values()) == {float(threads)}


class TestEvents:
    def test_schema_enforced_exactly(self):
        log = RunEventLog()
        with pytest.raises(ValueError, match="unknown event type"):
            log.emit("made-up")
        with pytest.raises(ValueError, match="missing fields"):
            log.emit("budget", algorithm="mes")
        with pytest.raises(ValueError, match="unknown fields"):
            log.emit(
                "budget",
                algorithm="mes",
                budget_ms=1.0,
                spent_ms=1.0,
                frames=1,
                exhausted=False,
                extra=1,
            )

    def test_degradation_kind_validated(self):
        log = RunEventLog()
        with pytest.raises(ValueError, match="kind"):
            log.emit(
                "degradation",
                algorithm="mes",
                iteration=1,
                frame_index=0,
                kind="vaporized",
                selected="a",
                realized=None,
                failed_models=[],
            )

    def test_seq_is_monotonic_and_filter_works(self):
        log = RunEventLog()
        log.emit(
            "budget",
            algorithm="mes",
            budget_ms=1.0,
            spent_ms=0.5,
            frames=3,
            exhausted=False,
        )
        log.emit("circuit-transition", model="m", from_state="closed",
                 to_state="open", batch=7)
        assert [e["seq"] for e in log.events()] == [1, 2]
        [transition] = log.events("circuit-transition")
        assert transition["to_state"] == "open"
        assert log.events("budget")[0]["frames"] == 3

    def test_retention_bound(self):
        log = RunEventLog(max_events=2)
        for i in range(4):
            log.emit(
                "budget",
                algorithm="mes",
                budget_ms=1.0,
                spent_ms=float(i),
                frames=i,
                exhausted=False,
            )
        assert log.dropped == 2
        assert [e["frames"] for e in log.events()] == [2, 3]

    def test_every_schema_is_emittable(self):
        log = RunEventLog()
        defaults = {"kind": "degraded", "realized": None, "failed_models": []}
        for event_type, schema in EVENT_SCHEMAS.items():
            fields = {name: defaults.get(name, 1) for name in schema}
            log.emit(event_type, **fields)
        assert len(log.events()) == len(EVENT_SCHEMAS)


def _flat_trace():
    tracer = Tracer()
    with tracer.span("frame", iteration=1):
        tracer.add_span("detect-model", sim_ms=4.0, model="m")
    return tracer


def _nested_mixed_trace():
    """Nested spans, non-ASCII text, float/None/bool attributes, and an
    ``error`` status from a span left by an exception."""
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.span("frame", algorithm="MES-β", iteration=2):
            with tracer.span("fuse", ratio=0.1 + 0.2, empty=None, ok=True):
                tracer.add_span(
                    "détecte",
                    wall_ms=1.5,
                    sim_ms=1 / 3,
                    status="timeout",
                    model="夜間",
                    degraded=False,
                )
            raise RuntimeError("abandon the frame")
    return tracer


def _dropping_trace():
    tracer = Tracer(max_spans=2)
    for index in range(5):
        tracer.add_span("detect-model", sim_ms=float(index), model="m")
    return tracer


class TestExporters:
    def _snapshot(self):
        registry = MetricsRegistry()
        registry.counter("repro_frames_total", "Frames", algorithm="mes").inc(3)
        registry.gauge("repro_budget_spent_ms", "Spent").set(12.5)
        hist = registry.histogram(
            "repro_frame_charged_ms", buckets=(10.0, 100.0), description="Charged"
        )
        hist.observe(5.0)
        hist.observe(50.0)
        hist.observe(500.0)
        return registry.snapshot()

    def test_prometheus_format(self):
        text = metrics_to_prometheus(self._snapshot())
        lines = text.splitlines()
        assert "# HELP repro_frames_total Frames" in lines
        assert "# TYPE repro_frames_total counter" in lines
        assert 'repro_frames_total{algorithm="mes"} 3' in lines
        assert "# TYPE repro_budget_spent_ms gauge" in lines
        assert "repro_budget_spent_ms 12.5" in lines
        # Cumulative buckets plus +Inf, _sum and _count.
        assert 'repro_frame_charged_ms_bucket{le="10"} 1' in lines
        assert 'repro_frame_charged_ms_bucket{le="100"} 2' in lines
        assert 'repro_frame_charged_ms_bucket{le="+Inf"} 3' in lines
        assert "repro_frame_charged_ms_sum 555" in lines
        assert "repro_frame_charged_ms_count 3" in lines
        assert text.endswith("\n")

    def test_prometheus_escapes_label_values(self):
        registry = MetricsRegistry()
        registry.counter("c", model='we"ird\\name').inc()
        text = metrics_to_prometheus(registry.snapshot())
        assert 'c{model="we\\"ird\\\\name"} 1' in text

    def test_empty_snapshot_exports_empty(self):
        assert metrics_to_prometheus(MetricsSnapshot()) == ""
        assert json.loads(metrics_to_json(MetricsSnapshot())) == {
            "counters": [],
            "gauges": [],
            "histograms": [],
            "descriptions": {},
        }

    def test_json_is_deterministic(self):
        assert metrics_to_json(self._snapshot()) == metrics_to_json(
            self._snapshot()
        )

    def test_write_metrics_picks_format_by_extension(self, tmp_path):
        snap = self._snapshot()
        prom = tmp_path / "m.prom"
        js = tmp_path / "m.json"
        write_metrics(str(prom), snap)
        write_metrics(str(js), snap)
        assert prom.read_text().startswith("# HELP")
        payload = json.loads(js.read_text())
        assert payload["counters"][0]["name"] == "repro_frames_total"

    @pytest.mark.parametrize(
        "make_tracer",
        [_flat_trace, _nested_mixed_trace, Tracer, _dropping_trace],
        ids=["flat", "nested-mixed", "empty", "dropped"],
    )
    def test_write_trace_json(self, tmp_path, make_tracer):
        tracer = make_tracer()
        path = tmp_path / "trace.json"
        write_trace_json(str(path), tracer)
        text = path.read_text(encoding="utf-8")
        spans = tracer.finished()
        assert json.loads(text) == {
            "dropped": tracer.dropped,
            "spans": [s.as_dict() for s in spans],
        }
        # The head, one line per span, the tail.
        assert len(text.splitlines()) == len(spans) + 2

    def test_write_events_jsonl(self, tmp_path):
        log = RunEventLog()
        log.emit("circuit-transition", model="m", from_state="closed",
                 to_state="open", batch=1)
        path = tmp_path / "events.jsonl"
        write_events_jsonl(str(path), log)
        [line] = path.read_text().splitlines()
        assert json.loads(line)["type"] == "circuit-transition"


class TestObservabilityFacade:
    def test_levels(self):
        off = Observability(level="off")
        metrics = Observability(level="metrics")
        trace = Observability(level="trace")
        assert (off.metrics, off.events, off.tracer) == (None, None, None)
        assert metrics.metrics is not None and metrics.events is not None
        assert metrics.tracer is None
        assert trace.tracer is not None
        with pytest.raises(ValueError, match="obs level"):
            Observability(level="verbose")

    def test_off_helpers_are_inert(self):
        obs = Observability(level="off")
        obs.count("c")
        obs.observe("h", 1.0)
        obs.set_gauge("g", 1.0)
        obs.event("budget", algorithm="x", budget_ms=1.0, spent_ms=1.0,
                  frames=1, exhausted=False)
        with obs.span("frame") as span:
            span.set_sim_ms(5.0)
        assert span is NULL_SPAN
        assert obs.snapshot() == MetricsSnapshot()

    def test_off_span_context_is_shared_singleton(self):
        """The off path must not allocate per call (the zero-cost claim)."""
        obs = Observability(level="off")
        assert obs.span("a") is obs.span("b")
        assert NULL_OBS.span("frame") is obs.span("c")

    def test_metrics_level_records_but_does_not_trace(self):
        obs = Observability(level="metrics")
        obs.count("frames", algorithm="mes")
        obs.observe("ms", 3.0, buckets=(1.0, 5.0))
        with obs.span("frame") as span:
            pass
        assert span is NULL_SPAN
        snap = obs.snapshot()
        assert snap.counter_value("frames", algorithm="mes") == 1.0
        assert snap.histogram_snapshot("ms").count == 1

    def test_trace_level_spans(self):
        obs = Observability(level="trace")
        with obs.span("frame", iteration=3) as span:
            obs.add_span("retry", sim_ms=2.0, model="m", attempt=1)
        assert span is not NULL_SPAN
        names = [s.name for s in obs.tracer.finished()]
        assert names == ["retry", "frame"]

    def test_null_obs_is_off(self):
        assert NULL_OBS.level == "off"
        assert NULL_OBS.metrics is None
