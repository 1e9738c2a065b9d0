"""Unit tests for the selection framework (records, results, run loop)."""

import pytest

from repro.core.baselines import BruteForce
from repro.core.ensembles import make_key
from repro.core.mes import MES
from repro.core.mes_b import MESB
from repro.core.selection import FrameRecord, SelectionResult


def record(iteration, frame_index, selected=("m1",), true_score=0.5,
           charged=10.0, cost=10.0, c_hat=0.2):
    return FrameRecord(
        iteration=iteration,
        frame_index=frame_index,
        selected=selected,
        est_score=true_score * 0.9,
        est_ap=0.4,
        true_score=true_score,
        true_ap=0.5,
        cost_ms=cost,
        normalized_cost=c_hat,
        charged_ms=charged,
    )


class TestSelectionResult:
    def test_empty_result(self):
        result = SelectionResult(algorithm="X", records=[])
        assert result.s_sum == 0.0
        assert result.mean_true_ap == 0.0
        assert result.mean_normalized_cost == 0.0
        assert result.frames_processed == 0
        assert result.selection_counts() == {}

    def test_aggregates(self):
        records = [
            record(1, 0, true_score=0.4, charged=10),
            record(2, 1, true_score=0.6, charged=20),
        ]
        result = SelectionResult(algorithm="X", records=records)
        assert result.s_sum == pytest.approx(1.0)
        assert result.s_sum_estimated == pytest.approx(0.9)
        assert result.total_charged_ms == pytest.approx(30.0)
        assert result.frames_processed == 2

    def test_selection_counts(self):
        records = [
            record(1, 0, selected=("a",)),
            record(2, 1, selected=("a",)),
            record(3, 2, selected=("a", "b")),
        ]
        result = SelectionResult(algorithm="X", records=records)
        assert result.selection_counts() == {("a",): 2, ("a", "b"): 1}

    def test_cumulative_cost_points(self):
        records = [record(1, 0, charged=5.0), record(2, 1, charged=7.0)]
        result = SelectionResult(algorithm="X", records=records)
        assert result.cumulative_cost_points() == [(1, 5.0), (2, 12.0)]


class TestRunLoop:
    def test_zero_budget_rejected(self, environment, small_video):
        with pytest.raises(ValueError):
            BruteForce().run(environment, small_video.frames, budget_ms=0.0)

    def test_negative_budget_rejected(self, environment, small_video):
        with pytest.raises(ValueError):
            BruteForce().run(environment, small_video.frames, budget_ms=-5.0)

    @pytest.mark.parametrize(
        "budget", [float("nan"), float("inf"), 0.0, -1.0],
        ids=["nan", "inf", "zero", "negative"],
    )
    @pytest.mark.parametrize("factory", [MES, MESB], ids=["MES", "MES-B"])
    def test_budget_must_be_positive_and_finite(
        self, environment, small_video, factory, budget
    ):
        """A NaN or infinite budget would never stop the frame loop."""
        with pytest.raises(ValueError, match="positive and finite"):
            factory(gamma=2).run(environment, small_video.frames, budget_ms=budget)
        with pytest.raises(ValueError, match="positive and finite"):
            factory(gamma=2).run_stream(
                environment, small_video.frames, budget_ms=budget
            )
        assert environment.clock.total_ms == 0.0

    def test_empty_frames_empty_result(self, environment):
        result = BruteForce().run(environment, [])
        assert result.frames_processed == 0

    def test_overhead_charged_per_candidate(self, environment, small_video):
        MES(gamma=2).run(environment, small_video.frames[:5])
        assert environment.clock.overhead_ms > 0.0

    def test_records_iteration_numbers_contiguous(self, environment, small_video):
        result = MES(gamma=2).run(environment, small_video.frames[:10])
        assert [r.iteration for r in result.records] == list(range(1, 11))

    def test_misbehaving_choose_detected(self, environment, small_video):
        class Broken(MES):
            name = "broken"

            def _choose(self, env, t, frame):
                # Selected ensemble deliberately left out of the
                # evaluation list: the loop must refuse to misaccount.
                return env.full_ensemble, [make_key([env.model_names[0]])]

        with pytest.raises(RuntimeError, match="missing"):
            Broken(gamma=1).run(environment, small_video.frames[:3])
