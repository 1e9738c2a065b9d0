"""Unit tests for SW-MES, D-MES, and drift adaptation."""

import pytest

from repro.core.environment import DetectionEnvironment, EvaluationStore
from repro.core.mes import MES
from repro.core.scoring import WeightedLogScore
from repro.core.sw_mes import DMES, SWMES, suggested_window
from repro.simulation.drift import compose_drifting_video
from repro.simulation.world import generate_video


class TestSuggestedWindow:
    def test_no_drift_means_no_forgetting(self):
        assert suggested_window(1000, 0) == 1000

    def test_formula(self):
        import math

        n, xi = 10_000, 4
        expected = int(math.sqrt(n * math.log(n) / xi))
        assert suggested_window(n, xi) == expected

    def test_more_breakpoints_smaller_window(self):
        assert suggested_window(10_000, 16) < suggested_window(10_000, 4)

    def test_invalid(self):
        with pytest.raises(ValueError):
            suggested_window(0, 1)
        with pytest.raises(ValueError):
            suggested_window(10, -1)


class TestSWMES:
    def test_processes_all_frames(self, environment, small_video):
        result = SWMES(window=10, gamma=2).run(environment, small_video.frames)
        assert result.frames_processed == len(small_video)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            SWMES(window=0)
        with pytest.raises(ValueError):
            SWMES(window=5, gamma=0)

    def test_statistics_are_windowed(self, environment, small_video):
        algo = SWMES(window=5, gamma=2)
        algo.run(environment, small_video.frames)
        t = len(small_video)
        for key in environment.all_ensembles:
            assert algo.statistics.count(key, now=t) <= 5

    def test_deterministic(self, detector_pool, lidar, small_video):
        def run():
            env = DetectionEnvironment(
                detector_pool, lidar, scoring=WeightedLogScore(0.5)
            )
            return SWMES(window=8, gamma=2).run(env, small_video.frames)

        assert [r.selected for r in run().records] == [
            r.selected for r in run().records
        ]


class TestDMES:
    def test_processes_all_frames(self, environment, small_video):
        result = DMES(discount=0.95, gamma=2).run(environment, small_video.frames)
        assert result.frames_processed == len(small_video)

    def test_invalid_discount(self):
        with pytest.raises(ValueError):
            DMES(discount=1.5)


class TestDriftAdaptation:
    @pytest.fixture(scope="class")
    def drifting_frames(self):
        clear = generate_video("sw/clear", 600, "clear", seed=5)
        night = generate_video("sw/night", 600, "night", seed=6)
        video = compose_drifting_video(
            "sw/c&n", [clear, night], num_segments=3, seed=3
        )
        return video

    def test_sw_mes_adapts_under_drift(self, detector_pool, lidar, drifting_frames):
        """The Figure 7 claim at test scale.

        Under abrupt drift the windowed statistics recover after each
        breakpoint, so SW-MES must clearly beat a commit-once strategy
        (EF) and stay close to MES.  (At this toy scale SW-MES's permanent
        exploration floor keeps it slightly below MES — see EXPERIMENTS.md
        for the full-scale analysis.)
        """
        from repro.core.baselines import ExploreFirst

        cache = EvaluationStore()
        scoring = WeightedLogScore(0.5)

        def run(algorithm):
            env = DetectionEnvironment(
                detector_pool, lidar, scoring=scoring, store=cache
            )
            return algorithm.run(env, drifting_frames.frames)

        mes = run(MES(gamma=3))
        ef = run(ExploreFirst(delta=3))
        window = max(
            suggested_window(
                len(drifting_frames), drifting_frames.num_breakpoints
            ),
            len(drifting_frames) // 4,
        )
        sw = run(SWMES(window=window, gamma=3))

        # Windowed adaptation beats the committed strategy under drift...
        assert sw.s_sum > ef.s_sum
        # ...and stays within a small factor of MES.
        assert sw.s_sum >= mes.s_sum * 0.90
