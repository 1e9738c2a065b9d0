"""Unit tests for streaming execution and result serialization."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.baselines import BruteForce, SingleBest
from repro.core.mes import MES
from repro.core.selection import FrameRecord, SelectionResult
from repro.runner.harness import TrialOutcome
from repro.runner.io import (
    load_outcomes_csv,
    load_records_csv,
    load_result_json,
    outcomes_to_rows,
    result_to_dict,
    save_outcomes_csv,
    save_records_csv,
    save_result_json,
)


class TestStreaming:
    def test_stream_matches_batch(self, detector_pool, lidar, small_video):
        from repro.core.environment import DetectionEnvironment, EvaluationStore

        cache = EvaluationStore()
        env_batch = DetectionEnvironment(detector_pool, lidar, store=cache)
        batch = MES(gamma=2).run(env_batch, small_video.frames)

        env_stream = DetectionEnvironment(detector_pool, lidar, store=cache)
        streamed = list(
            MES(gamma=2).run_stream(env_stream, iter(small_video.frames))
        )
        assert [r.selected for r in streamed] == [
            r.selected for r in batch.records
        ]
        assert sum(r.true_score for r in streamed) == pytest.approx(batch.s_sum)

    def test_stream_is_lazy(self, environment, small_video):
        stream = MES(gamma=2).run_stream(environment, iter(small_video.frames))
        first_three = list(itertools.islice(stream, 3))
        assert len(first_three) == 3
        assert first_three[0].iteration == 1

    def test_stream_respects_budget(self, environment, small_video):
        records = list(
            BruteForce().run_stream(
                environment, iter(small_video.frames), budget_ms=100.0
            )
        )
        assert 0 < len(records) < len(small_video)

    def test_unbounded_stream(self, environment, small_video):
        """An infinite stream works; the consumer decides when to stop."""
        infinite = itertools.cycle(small_video.frames)
        # Re-index so frame indices stay unique per iteration key reuse.
        stream = MES(gamma=2).run_stream(environment, infinite)
        records = list(itertools.islice(stream, 45))
        assert len(records) == 45

    def test_prescan_algorithms_refuse_streams(self, environment, small_video):
        with pytest.raises(TypeError, match="stream"):
            next(
                SingleBest().run_stream(environment, iter(small_video.frames))
            )


class TestResultIO:
    @pytest.fixture
    def result(self, environment, small_video):
        return MES(gamma=2).run(environment, small_video.frames[:8])

    def test_json_roundtrip(self, result, tmp_path):
        path = tmp_path / "run.json"
        save_result_json(result, path)
        loaded = load_result_json(path)
        assert loaded.algorithm == result.algorithm
        assert loaded.budget_ms == result.budget_ms
        assert loaded.records == result.records
        assert loaded.s_sum == pytest.approx(result.s_sum)

    def test_result_to_dict_summary_fields(self, result):
        payload = result_to_dict(result)
        assert payload["frames_processed"] == 8
        assert payload["s_sum"] == pytest.approx(result.s_sum)
        assert len(payload["records"]) == 8

    def test_records_csv(self, result, tmp_path):
        path = tmp_path / "records.csv"
        save_records_csv(result, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1 + 8
        assert lines[0].startswith("iteration,frame_index,selected")

    def test_records_csv_roundtrip_from_run(self, result, tmp_path):
        path = tmp_path / "records.csv"
        save_records_csv(result, path)
        assert load_records_csv(path) == list(result.records)

    def test_outcomes_rows_and_csv(self, result, tmp_path):
        outcome = TrialOutcome(algorithm="MES")
        outcome.add(result)
        outcome.add(result)
        rows = outcomes_to_rows({"MES": outcome})
        assert len(rows) == 2
        assert rows[0]["algorithm"] == "MES"
        assert rows[1]["trial"] == 1

        path = tmp_path / "outcomes.csv"
        save_outcomes_csv({"MES": outcome}, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 3


_NAMES = st.sampled_from(["yolo-c", "yolo-n", "yolo-r", "rcnn", "ref"])
_ENSEMBLES = st.lists(_NAMES, min_size=1, max_size=4, unique=True).map(tuple)
_FLOATS = st.floats(
    allow_nan=False, allow_infinity=False, width=64, min_value=-1e9,
    max_value=1e9,
)
_FRAME_RECORDS = st.builds(
    FrameRecord,
    iteration=st.integers(min_value=1, max_value=10**6),
    frame_index=st.integers(min_value=0, max_value=10**6),
    selected=_ENSEMBLES,
    est_score=_FLOATS,
    est_ap=_FLOATS,
    true_score=_FLOATS,
    true_ap=_FLOATS,
    cost_ms=_FLOATS,
    normalized_cost=_FLOATS,
    charged_ms=_FLOATS,
    realized=st.none() | _ENSEMBLES,
)


class TestCsvRoundTrip:
    """``load(save(x)) == x`` for both CSV formats (satellite S3).

    The writers serialize bools, ``None`` (the ``realized`` field of
    fault-free frames) and floats; the loaders must coerce them back to
    the exact original values, not leave raw strings behind.
    """

    @settings(max_examples=60, deadline=None)
    @given(records=st.lists(_FRAME_RECORDS, max_size=12))
    def test_records_roundtrip_property(self, records, tmp_path_factory):
        path = tmp_path_factory.mktemp("csv") / "records.csv"
        result = SelectionResult(
            algorithm="prop", records=list(records), budget_ms=None
        )
        save_records_csv(result, path)
        loaded = load_records_csv(path)
        assert loaded == list(records)
        # None-ness survives explicitly: no realized column collapses to
        # the realized_key fallback.
        assert [r.realized for r in loaded] == [r.realized for r in records]
        assert [r.degraded for r in loaded] == [r.degraded for r in records]

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.dictionaries(
            st.sampled_from(["MES", "MES-B", "SW-MES", "OPT"]),
            st.lists(
                st.tuples(_FLOATS, _FLOATS, _FLOATS,
                          st.integers(min_value=0, max_value=10**4)),
                min_size=1,
                max_size=5,
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_outcomes_roundtrip_property(self, data, tmp_path_factory):
        path = tmp_path_factory.mktemp("csv") / "outcomes.csv"
        outcomes = {}
        for name, rows in data.items():
            outcome = TrialOutcome(algorithm=name)
            for s_sum, mean_ap, mean_cost, frames in rows:
                outcome.s_sum.append(s_sum)
                outcome.mean_ap.append(mean_ap)
                outcome.mean_cost.append(mean_cost)
                outcome.frames_processed.append(frames)
            outcomes[name] = outcome
        save_outcomes_csv(outcomes, path)
        assert load_outcomes_csv(path) == outcomes

    def test_realized_none_distinct_from_realized_equal_selected(
        self, tmp_path
    ):
        base = dict(
            iteration=1, frame_index=0, est_score=0.5, est_ap=0.5,
            true_score=0.5, true_ap=0.5, cost_ms=1.0, normalized_cost=0.1,
            charged_ms=1.0,
        )
        records = [
            FrameRecord(selected=("a", "b"), realized=None, **base),
            FrameRecord(selected=("a", "b"), realized=("a",), **base),
        ]
        path = tmp_path / "records.csv"
        save_records_csv(
            SelectionResult(algorithm="x", records=records, budget_ms=None),
            path,
        )
        loaded = load_records_csv(path)
        assert loaded[0].realized is None
        assert not loaded[0].degraded
        assert loaded[1].realized == ("a",)
        assert loaded[1].degraded

    def test_records_loader_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("iteration,frame_index\n1,0\n")
        with pytest.raises(ValueError, match="header"):
            load_records_csv(path)

    def test_outcomes_loader_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("algorithm,s_sum\nMES,1.0\n")
        with pytest.raises(ValueError, match="header"):
            load_outcomes_csv(path)

    def test_records_loader_rejects_inconsistent_degraded(self, tmp_path):
        path = tmp_path / "bad.csv"
        header = (
            "iteration,frame_index,selected,est_score,est_ap,true_score,"
            "true_ap,cost_ms,normalized_cost,charged_ms,realized,degraded"
        )
        path.write_text(header + "\n1,0,a+b,0,0,0,0,0,0,0,,True\n")
        with pytest.raises(ValueError, match="inconsistent"):
            load_records_csv(path)
