"""Unit tests for the baseline strategies (Section 5.3)."""

import pytest

from repro.core.baselines import (
    BruteForce,
    ExploreFirst,
    MESA,
    Oracle,
    RandomSelection,
    SingleBest,
)
from repro.core.environment import DetectionEnvironment, EvaluationStore
from repro.core.scoring import WeightedLogScore


@pytest.fixture
def frames(small_video):
    return small_video.frames


class TestOracle:
    def test_selects_true_score_argmax(self, environment, frames):
        result = Oracle().run(environment, frames[:5])
        for record in result.records:
            peek = environment.evaluate(
                frames[record.frame_index], environment.all_ensembles, charge=False
            )
            best = max(
                peek.evaluations.values(), key=lambda ev: (ev.true_score, ev.key)
            )
            assert record.selected == best.key
            assert record.true_score == best.true_score

    def test_oracle_dominates_everyone(self, detector_pool, lidar, frames):
        cache = EvaluationStore()
        scoring = WeightedLogScore(0.5)

        def run(algo):
            env = DetectionEnvironment(
                detector_pool, lidar, scoring=scoring, store=cache
            )
            return algo.run(env, frames)

        opt = run(Oracle()).s_sum
        for algo in (BruteForce(), SingleBest(), RandomSelection(seed=1)):
            assert run(algo).s_sum <= opt + 1e-9

    def test_peeks_do_not_consume_budget(self, environment, frames):
        result = Oracle().run(environment, frames[:5])
        # Billed per frame: just the chosen ensemble, never all 7.
        for record in result.records:
            assert record.charged_ms <= record.cost_ms * 1.05


class TestBruteForce:
    def test_always_full_ensemble(self, environment, frames):
        result = BruteForce().run(environment, frames[:5])
        assert all(
            r.selected == environment.full_ensemble for r in result.records
        )

    def test_highest_cost_per_frame(self, environment, frames):
        result = BruteForce().run(environment, frames[:5])
        for record in result.records:
            assert record.normalized_cost > 0.5


class TestSingleBest:
    def test_always_single_detector(self, environment, frames):
        result = SingleBest().run(environment, frames[:5])
        chosen = {r.selected for r in result.records}
        assert len(chosen) == 1
        assert len(next(iter(chosen))) == 1

    def test_picks_most_accurate_single(self, environment, frames):
        algo = SingleBest()
        algo.run(environment, frames[:8])
        singles = [(name,) for name in environment.model_names]
        totals = {key: 0.0 for key in singles}
        for frame in frames[:8]:
            batch = environment.evaluate(frame, singles, charge=False)
            for key in singles:
                totals[key] += batch.evaluations[key].true_ap
        best = max(singles, key=lambda key: (totals[key], key))
        assert algo._best == best

    def test_calibration_frames_subsample(self, environment, frames):
        algo = SingleBest(calibration_frames=3)
        result = algo.run(environment, frames)
        assert result.frames_processed == len(frames)

    def test_invalid_calibration(self):
        with pytest.raises(ValueError):
            SingleBest(calibration_frames=0)


class TestRandomSelection:
    def test_deterministic_given_seed(self, detector_pool, lidar, frames):
        def run(seed):
            env = DetectionEnvironment(detector_pool, lidar)
            return RandomSelection(seed=seed).run(env, frames)

        assert [r.selected for r in run(1).records] == [
            r.selected for r in run(1).records
        ]
        assert [r.selected for r in run(1).records] != [
            r.selected for r in run(2).records
        ]

    def test_explores_multiple_ensembles(self, environment, frames):
        result = RandomSelection(seed=0).run(environment, frames)
        assert len(result.selection_counts()) > 1


class TestExploreFirst:
    def test_commits_after_exploration(self, environment, frames):
        result = ExploreFirst(delta=4).run(environment, frames)
        tail = {r.selected for r in result.records[4:]}
        assert len(tail) == 1

    def test_exploration_phase_uses_full_ensemble(self, environment, frames):
        result = ExploreFirst(delta=4).run(environment, frames)
        for record in result.records[:4]:
            assert record.selected == environment.full_ensemble

    def test_commits_to_best_estimate(self, environment, frames):
        algo = ExploreFirst(delta=4)
        algo.run(environment, frames)
        best = max(
            environment.all_ensembles,
            key=lambda key: (algo._stats.mean(key), key),
        )
        assert algo._committed == best

    def test_invalid_delta(self):
        with pytest.raises(ValueError):
            ExploreFirst(delta=0)


class TestMESA:
    def test_no_subset_piggyback(self, environment, frames):
        algo = MESA(gamma=3)
        algo.run(environment, frames)
        # Post-init, only the selected ensemble gains observations, so a
        # single arm's count is bounded by init + its own selections, which
        # is strictly less than MES's subset-boosted counts.
        total_observations = sum(
            algo.statistics.count(key) for key in environment.all_ensembles
        )
        # Init contributes 3 * 7 observations, then 1 per iteration.
        expected = 3 * 7 + (len(frames) - 3)
        assert total_observations == expected
