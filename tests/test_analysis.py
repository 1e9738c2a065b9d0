"""Unit tests for the regret-growth analysis helpers."""

import math

import pytest

from repro.core.analysis import fit_log_growth, fit_power_growth, halves_ratio


def log_curve(n, a=5.0, b=2.0):
    return [a * math.log(t) + b for t in range(1, n + 1)]


def power_curve(n, a=2.0, p=0.5):
    return [a * t**p for t in range(1, n + 1)]


def linear_curve(n, rate=0.3):
    return [rate * t for t in range(1, n + 1)]


class TestFitLogGrowth:
    def test_recovers_exact_log_curve(self):
        fit = fit_log_growth(log_curve(500, a=5.0, b=2.0))
        assert fit.coefficient == pytest.approx(5.0, rel=1e-6)
        assert fit.offset == pytest.approx(2.0, rel=1e-3)
        assert fit.r_squared > 0.999

    def test_linear_curve_fits_log_badly(self):
        good = fit_log_growth(log_curve(500)).r_squared
        bad = fit_log_growth(linear_curve(500)).r_squared
        assert good > bad

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_log_growth([1.0, 2.0])


class TestFitPowerGrowth:
    def test_recovers_exponent(self):
        fit = fit_power_growth(power_curve(500, a=2.0, p=0.5))
        assert fit.exponent == pytest.approx(0.5, abs=0.02)
        assert fit.coefficient == pytest.approx(2.0, rel=0.05)

    def test_linear_curve_exponent_one(self):
        fit = fit_power_growth(linear_curve(500))
        assert fit.exponent == pytest.approx(1.0, abs=0.02)

    def test_zero_regret_reports_flat(self):
        fit = fit_power_growth([0.0] * 100)
        assert fit.exponent == 0.0
        assert fit.r_squared == 1.0

    def test_log_curve_has_small_exponent(self):
        fit = fit_power_growth(log_curve(1000))
        assert fit.exponent < 0.5


class TestHalvesRatio:
    def test_log_curve_ratio_well_below_one(self):
        assert halves_ratio(log_curve(1000)) < 0.5

    def test_linear_curve_ratio_near_one(self):
        assert halves_ratio(linear_curve(1000)) == pytest.approx(1.0, abs=0.01)

    def test_flat_curve(self):
        assert halves_ratio([0.0, 0.0, 0.0, 0.0]) == 0.0

    def test_too_short(self):
        with pytest.raises(ValueError):
            halves_ratio([1.0, 2.0])


class TestOnRealAlgorithms:
    def test_mes_regret_fits_sublinear_growth(self, detector_pool, lidar):
        """Theorem 4.1 signature: MES's regret exponent is well below 1."""
        from repro.core.environment import DetectionEnvironment, EvaluationStore
        from repro.core.mes import MES
        from repro.core.baselines import RandomSelection
        from repro.core.regret import oracle_scores, regret_curve
        from repro.core.scoring import WeightedLogScore
        from repro.simulation.world import generate_video

        video = generate_video("analysis/clear", 500, "clear", seed=23)
        cache = EvaluationStore()
        scoring = WeightedLogScore(0.5)
        env = DetectionEnvironment(detector_pool, lidar, scoring=scoring, store=cache)
        oracle = oracle_scores(env, video.frames)

        def curve_for(algo):
            env_run = DetectionEnvironment(
                detector_pool, lidar, scoring=scoring, store=cache
            )
            result = algo.run(env_run, video.frames)
            return regret_curve(result, oracle)

        mes_fit = fit_power_growth(curve_for(MES(gamma=5)), skip=10)
        rand_fit = fit_power_growth(
            curve_for(RandomSelection(seed=2)), skip=10
        )
        # RAND's regret is linear; MES's grows strictly slower.
        assert rand_fit.exponent > 0.9
        assert mes_fit.exponent < rand_fit.exponent
