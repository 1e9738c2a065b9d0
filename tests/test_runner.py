"""Unit tests for the runner layer: suites, trials, harness, reporting."""

import pytest

from repro.core.baselines import BruteForce, SingleBest
from repro.core.mes import MES
from repro.core.scoring import WeightedLogScore
from repro.runner.experiment import (
    bdd_detector_suite,
    dataset_keys,
    nuscenes_detector_suite,
    run_algorithms,
    standard_setup,
)
from repro.runner.harness import MetricStats, TrialOutcome, compare_algorithms
from repro.runner.reporting import (
    format_series,
    format_table,
    normalize_by,
    safe_rate,
)
from repro.simulation.datasets import build_bdd_like, build_nuscenes_like
from repro.utils.rng import derive_seed


class TestDetectorSuites:
    def test_m3_is_the_figure2_trio(self):
        suite = nuscenes_detector_suite(m=3)
        names = [d.name for d in suite]
        assert names == [
            "yolov7-tiny-clear",
            "yolov7-tiny-night",
            "yolov7-tiny-rainy",
        ]

    def test_suites_are_prefix_nested(self):
        small = [d.name for d in nuscenes_detector_suite(m=2)]
        large = [d.name for d in nuscenes_detector_suite(m=5)]
        assert large[:2] == small

    def test_m_bounds(self):
        with pytest.raises(ValueError):
            nuscenes_detector_suite(m=0)
        with pytest.raises(ValueError):
            nuscenes_detector_suite(m=7)

    def test_bdd_suite_has_specialists(self):
        names = [d.name for d in bdd_detector_suite(m=3)]
        assert "yolov7-tiny-rainy" in names
        assert "yolov7-tiny-snow" in names

    def test_seed_changes_checkpoints(self, simple_frame):
        a = nuscenes_detector_suite(m=1, seed=1)[0]
        b = nuscenes_detector_suite(m=1, seed=2)[0]
        assert a.detect(simple_frame).detections != b.detect(simple_frame).detections


class TestStandardSetup:
    def test_basic_shape(self):
        setup = standard_setup("nusc-night", trial=0, scale=0.02, m=3, max_frames=40)
        assert len(setup.frames) == 40
        assert len(setup.detectors) == 3
        assert setup.label == "nusc-night"
        assert all(f.category.name == "night" for f in setup.frames)

    def test_trials_resample(self):
        a = standard_setup("nusc-clear", trial=0, scale=0.02, max_frames=10)
        b = standard_setup("nusc-clear", trial=1, scale=0.02, max_frames=10)
        assert any(
            fa.objects != fb.objects for fa, fb in zip(a.frames, b.frames, strict=True)
        )

    def test_unknown_dataset(self):
        with pytest.raises(KeyError):
            standard_setup("kitti")

    def test_dataset_keys_cover_paper_datasets(self):
        keys = dataset_keys()
        for expected in ("nusc", "nusc-clear", "nusc-night", "nusc-rainy", "bdd"):
            assert expected in keys


#: How a trial's frames were built before generation was scoped to them:
#: the whole dataset, then one group's video, then the first frames.
_FULL_BUILDS = {
    "nusc": (build_nuscenes_like, None),
    "nusc-clear": (build_nuscenes_like, "nusc-clear"),
    "nusc-night": (build_nuscenes_like, "nusc-night"),
    "nusc-rainy": (build_nuscenes_like, "nusc-rainy"),
    "bdd": (build_bdd_like, None),
    "bdd-rainy": (build_bdd_like, "bdd-rainy"),
    "bdd-snow": (build_bdd_like, "bdd-snow"),
}


class TestScopedGeneration:
    """``standard_setup`` generates only the frames a trial reads.

    At scale 0.02 every group has at least two scenes (nusc: 50 frames
    each; bdd-main: 100; bdd-rainy/snow: 42), so 75 frames end mid-scene
    in every group.  The first groups end at frame 250 (nusc-clear) and 600
    (bdd-main), so 275 and 630 frames cross into the second group.
    """

    SCALE = 0.02
    SEED = 5
    TRIAL = 1

    def _full_build_frames(self, dataset, max_frames):
        builder, group = _FULL_BUILDS[dataset]
        seed = derive_seed(self.SEED, "data", dataset, self.TRIAL)
        frames = builder(seed=seed, scale=self.SCALE).as_video(group).frames
        return frames if max_frames is None else frames[:max_frames]

    def _assert_same_frames(self, dataset, max_frames):
        setup = standard_setup(
            dataset,
            trial=self.TRIAL,
            scale=self.SCALE,
            m=2,
            max_frames=max_frames,
            seed=self.SEED,
        )
        # Frame equality covers key (video name and index), category and
        # objects.
        assert setup.frames == self._full_build_frames(dataset, max_frames)

    def test_registry_is_covered(self):
        assert sorted(_FULL_BUILDS) == dataset_keys()

    @pytest.mark.parametrize("max_frames", [None, 75])
    @pytest.mark.parametrize("dataset", sorted(_FULL_BUILDS))
    def test_frames_equal_full_build(self, dataset, max_frames):
        self._assert_same_frames(dataset, max_frames)

    @pytest.mark.parametrize(("dataset", "max_frames"), [("nusc", 275), ("bdd", 630)])
    def test_frames_equal_full_build_across_groups(self, dataset, max_frames):
        self._assert_same_frames(dataset, max_frames)


class TestRunAlgorithms:
    def test_shared_trial_consistency(self):
        setup = standard_setup("nusc-clear", trial=0, scale=0.02, m=2, max_frames=20)
        results = run_algorithms(
            setup,
            {"BF": BruteForce, "SGL": SingleBest, "MES": lambda: MES(gamma=2)},
            scoring=WeightedLogScore(0.5),
        )
        assert set(results) == {"BF", "SGL", "MES"}
        for result in results.values():
            assert result.frames_processed == 20

    def test_budget_limits_all(self):
        setup = standard_setup("nusc-clear", trial=0, scale=0.02, m=2, max_frames=30)
        results = run_algorithms(
            setup, {"BF": BruteForce}, budget_ms=100.0
        )
        assert results["BF"].frames_processed < 30


class TestMetricStats:
    def test_summary(self):
        stats = MetricStats.from_values([1.0, 2.0, 3.0])
        assert stats.mean == pytest.approx(2.0)
        assert stats.min == 1.0
        assert stats.max == 3.0
        assert stats.std == pytest.approx(1.0)

    def test_single_value_zero_std(self):
        assert MetricStats.from_values([5.0]).std == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            MetricStats.from_values([])


class TestCompareAlgorithms:
    def test_collects_all_trials(self):
        outcomes = compare_algorithms(
            lambda t: standard_setup(
                "nusc-clear", trial=t, scale=0.02, m=2, max_frames=15
            ),
            {"BF": BruteForce, "MES": lambda: MES(gamma=2)},
            num_trials=3,
        )
        assert set(outcomes) == {"BF", "MES"}
        for outcome in outcomes.values():
            assert len(outcome.s_sum) == 3
            stats = outcome.stats("s_sum")
            assert stats.min <= stats.mean <= stats.max

    def test_unknown_metric(self):
        outcome = TrialOutcome(algorithm="X")
        with pytest.raises((KeyError, ValueError)):
            outcome.stats("bogus")

    def test_invalid_trials(self):
        with pytest.raises(ValueError):
            compare_algorithms(lambda t: None, {}, num_trials=0)


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(
            [{"name": "MES", "score": 1.23456}, {"name": "BF", "score": 0.5}],
            precision=2,
            title="Results",
        )
        lines = text.splitlines()
        assert lines[0] == "Results"
        assert "MES" in lines[3] and "1.23" in lines[3]

    def test_format_table_empty(self):
        assert "(empty)" in format_table([])

    def test_normalize_by(self):
        values = {"MES": 2.0, "EF": 1.0}
        normalized = normalize_by(values, "MES")
        assert normalized == {"MES": 1.0, "EF": 0.5}

    def test_normalize_missing_reference(self):
        with pytest.raises(KeyError):
            normalize_by({"A": 1.0}, "B")

    def test_normalize_zero_reference(self):
        with pytest.raises(ValueError):
            normalize_by({"A": 0.0}, "A")

    def test_format_series(self):
        text = format_series(
            "B", [100, 200], {"MES": [1.0, 2.0], "BF": [0.5, 0.6]}
        )
        assert "100" in text and "MES" in text

    def test_safe_rate(self):
        assert safe_rate(3.0, 4.0) == 0.75
        assert safe_rate(0.0, 4.0) == 0.0

    def test_safe_rate_zero_denominator_defaults_to_zero(self):
        """Empty-input aggregate rates follow the 0.0 convention of
        CacheStats.hit_rate instead of raising ZeroDivisionError."""
        assert safe_rate(5.0, 0.0) == 0.0
        assert safe_rate(0.0, 0) == 0.0
        assert safe_rate(1.0, 0.0, default=float("nan")) != safe_rate(1.0, 0.0)
