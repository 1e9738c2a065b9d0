"""Unit tests for empirical regret, including the sub-linearity check."""

import pytest

from repro.core.baselines import Oracle, RandomSelection
from repro.core.environment import DetectionEnvironment, EvaluationStore
from repro.core.mes import MES
from repro.core.regret import empirical_regret, oracle_scores, regret_curve
from repro.core.scoring import WeightedLogScore
from repro.runner.experiment import standard_setup
from repro.simulation.world import generate_video


class TestOracleScores:
    def test_matches_oracle_run(self, detector_pool, lidar, small_video):
        cache = EvaluationStore()
        env = DetectionEnvironment(detector_pool, lidar, store=cache)
        scores = oracle_scores(env, small_video.frames)
        env2 = DetectionEnvironment(detector_pool, lidar, store=cache)
        opt = Oracle().run(env2, small_video.frames)
        assert scores == pytest.approx([r.true_score for r in opt.records])


class TestEmpiricalRegret:
    def test_oracle_has_zero_regret(self, environment, small_video):
        oracle = oracle_scores(environment, small_video.frames)
        result = Oracle().run(environment, small_video.frames)
        assert empirical_regret(result, oracle) == pytest.approx(0.0, abs=1e-9)

    def test_regret_non_negative(self, detector_pool, lidar, small_video):
        cache = EvaluationStore()
        env = DetectionEnvironment(detector_pool, lidar, store=cache)
        oracle = oracle_scores(env, small_video.frames)
        env2 = DetectionEnvironment(detector_pool, lidar, store=cache)
        result = RandomSelection(seed=3).run(env2, small_video.frames)
        assert empirical_regret(result, oracle) >= 0.0

    def test_short_oracle_rejected(self, environment, small_video):
        result = RandomSelection(seed=0).run(environment, small_video.frames)
        with pytest.raises(ValueError):
            empirical_regret(result, [1.0])

    def test_curve_is_cumulative(self, detector_pool, lidar, small_video):
        cache = EvaluationStore()
        env = DetectionEnvironment(detector_pool, lidar, store=cache)
        oracle = oracle_scores(env, small_video.frames)
        env2 = DetectionEnvironment(detector_pool, lidar, store=cache)
        result = RandomSelection(seed=3).run(env2, small_video.frames)
        curve = regret_curve(result, oracle)
        assert len(curve) == result.frames_processed
        assert curve[-1] == pytest.approx(empirical_regret(result, oracle))
        # Per-frame regret is non-negative so the curve never decreases.
        assert all(b >= a - 1e-9 for a, b in zip(curve, curve[1:], strict=False))


class TestAbandonedFrames:
    """Each record is scored against its own frame's oracle score."""

    @pytest.fixture(scope="class")
    def run(self):
        kwargs = dict(trial=0, scale=0.02, m=3, max_frames=40, seed=0)
        clean = standard_setup("nusc-night", **kwargs)
        env = DetectionEnvironment(list(clean.detectors), clean.reference)
        oracle = oracle_scores(env, clean.frames)
        faulty = standard_setup("nusc-night", fault_profile="outage-first", **kwargs)
        env = DetectionEnvironment(list(faulty.detectors), faulty.reference)
        return RandomSelection(seed=1).run(env, faulty.frames), oracle

    def test_regret_skips_abandoned_frames(self, run):
        result, oracle = run
        iterations = [record.iteration for record in result.records]
        assert sorted(set(range(1, 41)) - set(iterations)) == [19, 26]
        per_record = [
            oracle[record.iteration - 1] - record.true_score
            for record in result.records
        ]
        assert min(per_record) >= 0.0
        assert empirical_regret(result, oracle) == sum(per_record)
        curve = regret_curve(result, oracle)
        assert [b - a for a, b in zip([0.0, *curve], curve, strict=False)] == (
            pytest.approx(per_record)
        )

    def test_oracle_must_reach_the_last_frame(self, run):
        result, oracle = run
        prefix = oracle[: len(result.records)]
        with pytest.raises(ValueError):
            empirical_regret(result, prefix)
        with pytest.raises(ValueError):
            regret_curve(result, prefix)


class TestMESRegretGrowth:
    def test_mes_regret_grows_sublinearly(self, detector_pool, lidar):
        """Theorem 4.1 shape: per-frame regret shrinks as the video grows.

        We compare MES's average per-frame regret on the first half vs the
        second half of a longer stationary video; UCB convergence means the
        second half must be no worse.
        """
        video = generate_video("regret/clear", 400, "clear", seed=17)
        cache = EvaluationStore()
        scoring = WeightedLogScore(0.5)
        env = DetectionEnvironment(detector_pool, lidar, scoring=scoring, store=cache)
        oracle = oracle_scores(env, video.frames)
        env2 = DetectionEnvironment(detector_pool, lidar, scoring=scoring, store=cache)
        result = MES(gamma=5).run(env2, video.frames)
        curve = regret_curve(result, oracle)
        half = len(curve) // 2
        first_half_rate = curve[half - 1] / half
        second_half_rate = (curve[-1] - curve[half - 1]) / (len(curve) - half)
        assert second_half_rate <= first_half_rate
