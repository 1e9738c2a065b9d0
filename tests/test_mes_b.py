"""Unit tests for MES-B (Algorithm 2) and LRBP."""

import pytest

from repro.core.mes_b import LRBP, MESB


class TestMESB:
    def test_requires_budget(self, environment, small_video):
        with pytest.raises(ValueError, match="budget"):
            MESB().run(environment, small_video.frames)

    def test_stops_when_budget_exhausted(self, environment, small_video):
        result = MESB(gamma=2).run(environment, small_video.frames, budget_ms=150.0)
        assert result.frames_processed < len(small_video)
        # The while C <= B guard means the total may overshoot by at most
        # one iteration's cost.
        total = result.total_charged_ms
        last = result.records[-1].charged_ms
        assert total - last <= 150.0

    def test_larger_budget_processes_more_frames(self, environment, small_video):
        from repro.core.environment import DetectionEnvironment

        small = MESB(gamma=2).run(environment, small_video.frames, budget_ms=120.0)
        env2 = DetectionEnvironment(
            list(environment._detectors.values()),
            environment.reference,
            scoring=environment.scoring,
            cache=environment.store,
        )
        big = MESB(gamma=2).run(env2, small_video.frames, budget_ms=600.0)
        assert big.frames_processed >= small.frames_processed

    def test_invalid_budget(self, environment, small_video):
        with pytest.raises(ValueError):
            MESB().run(environment, small_video.frames, budget_ms=0.0)


class TestLRBP:
    def test_fit_recovers_exact_line(self):
        points = [(t, 3.0 * t + 10.0) for t in range(1, 20)]
        model = LRBP.fit(points)
        assert model.slope == pytest.approx(3.0)
        assert model.intercept == pytest.approx(10.0)
        assert model.num_points == 19

    def test_fit_needs_two_points(self):
        with pytest.raises(ValueError):
            LRBP.fit([(1, 5.0)])

    def test_predict_cumulative(self):
        model = LRBP(slope=2.0, intercept=1.0, num_points=10)
        assert model.predict_cumulative(5) == pytest.approx(11.0)
        with pytest.raises(ValueError):
            model.predict_cumulative(-1)

    def test_predict_extra_budget(self):
        model = LRBP(slope=2.0, intercept=1.0, num_points=10)
        assert model.predict_extra_budget(100, 150) == pytest.approx(100.0)
        assert model.predict_extra_budget(100, 100) == 0.0
        with pytest.raises(ValueError):
            model.predict_extra_budget(100, 50)

    def test_negative_slope_clamped_to_zero_extra(self):
        model = LRBP(slope=-1.0, intercept=0.0, num_points=5)
        assert model.predict_extra_budget(10, 20) == 0.0

    def test_from_result_skips_initialization(self, environment, small_video):
        result = MESB(gamma=3).run(
            environment, small_video.frames, budget_ms=500.0
        )
        model = LRBP.from_result(
            result, skip_initialization=3, recent_fraction=1.0
        )
        assert model.num_points == result.frames_processed - 3
        assert model.slope > 0.0

    def test_from_result_recent_fraction(self, environment, small_video):
        result = MESB(gamma=3).run(
            environment, small_video.frames, budget_ms=500.0
        )
        model = LRBP.from_result(
            result, skip_initialization=3, recent_fraction=0.5
        )
        expected = max(int((result.frames_processed - 3) * 0.5), 2)
        assert model.num_points == expected
        with pytest.raises(ValueError):
            LRBP.from_result(result, recent_fraction=0.0)

    def test_end_to_end_prediction_accuracy(self, detector_pool, lidar, small_video):
        """LRBP predicts the remaining budget within a reasonable factor.

        Table 4 of the paper reports errors generally within 10%; on a
        30-frame toy video we accept a looser band (steady-state cost is
        noisier at this scale).
        """
        from repro.core.environment import DetectionEnvironment, EvaluationStore

        cache = EvaluationStore()
        env1 = DetectionEnvironment(detector_pool, lidar, cache=cache)
        partial = MESB(gamma=3).run(env1, small_video.frames, budget_ms=400.0)
        assert 0 < partial.frames_processed < len(small_video)
        model = LRBP.from_result(partial, skip_initialization=3)
        predicted = model.predict_extra_budget(
            partial.frames_processed, len(small_video)
        )

        env2 = DetectionEnvironment(detector_pool, lidar, cache=cache)
        full = MESB(gamma=3).run(env2, small_video.frames, budget_ms=1e9)
        actual = (
            full.total_charged_ms
            - sum(
                r.charged_ms
                for r in full.records[: partial.frames_processed]
            )
        )
        assert predicted == pytest.approx(actual, rel=0.5)
