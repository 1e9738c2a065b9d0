"""Unit tests for black-box detector profiling.

The closing-the-loop property: profiling a SimulatedDetector must recover
the qualitative structure of the DetectorProfile it was built from.
"""

import pytest

from repro.simulation.calibration import estimate_profile, rank_by_recall
from repro.simulation.detectors import SimulatedDetector
from repro.simulation.profiles import make_profile
from repro.simulation.world import generate_video


@pytest.fixture(scope="module")
def clear_frames():
    return generate_video("cal/clear", 80, "clear", seed=31).frames


@pytest.fixture(scope="module")
def night_frames():
    return generate_video("cal/night", 80, "night", seed=32).frames


class TestEstimateProfile:
    def test_basic_fields(self, clear_frames):
        detector = SimulatedDetector(make_profile("yolov7-tiny", "clear"), seed=1)
        profile = estimate_profile(detector, clear_frames)
        assert profile.detector_name == "yolov7-tiny-clear"
        assert profile.frames_profiled == len(clear_frames)
        assert "clear" in profile.by_category
        stats = profile.by_category["clear"]
        assert 0.0 < stats.recall <= 1.0
        assert stats.mean_matched_iou > 0.5
        assert 0.0 < stats.label_accuracy <= 1.0

    def test_inference_time_matches_architecture(self, clear_frames):
        detector = SimulatedDetector(make_profile("yolov7-tiny", "clear"), seed=1)
        profile = estimate_profile(detector, clear_frames)
        assert profile.mean_inference_ms == pytest.approx(10.0, rel=0.15)

    def test_recovers_domain_specialization(self, clear_frames, night_frames):
        """The profiled recall gap mirrors the transfer matrix."""
        detector = SimulatedDetector(make_profile("yolov7-tiny", "clear"), seed=1)
        profile = estimate_profile(
            detector, list(clear_frames) + list(night_frames)
        )
        assert profile.recall_on("clear") > profile.recall_on("night")
        assert profile.best_category() == "clear"

    def test_night_specialist_best_at_night(self, clear_frames, night_frames):
        detector = SimulatedDetector(make_profile("yolov7-tiny", "night"), seed=1)
        profile = estimate_profile(
            detector, list(clear_frames) + list(night_frames)
        )
        assert profile.recall_on("night") > profile.recall_on("clear")

    def test_bigger_architecture_higher_recall(self, clear_frames):
        big = SimulatedDetector(make_profile("yolov7", "clear"), seed=1)
        small = SimulatedDetector(make_profile("yolov7-micro", "clear"), seed=1)
        big_profile = estimate_profile(big, clear_frames)
        small_profile = estimate_profile(small, clear_frames)
        assert big_profile.overall_recall() > small_profile.overall_recall()

    def test_unknown_category_recall_zero(self, clear_frames):
        detector = SimulatedDetector(make_profile("yolov7-tiny", "clear"), seed=1)
        profile = estimate_profile(detector, clear_frames)
        assert profile.recall_on("snow") == 0.0

    def test_empty_frames_rejected(self):
        detector = SimulatedDetector(make_profile("yolov7-tiny", "clear"), seed=1)
        with pytest.raises(ValueError):
            estimate_profile(detector, [])


class TestGolden:
    def test_counters_pinned(self, clear_frames, night_frames):
        """Every counter of a seeded profile, iou_sum to the last bit.

        The hex of ``iou_sum`` pins the matched IoUs and the order they
        are summed in, so any change to the match or its IoU arithmetic
        shows here.
        """
        detector = SimulatedDetector(make_profile("yolov7-tiny", "rainy"), seed=7)
        profile = estimate_profile(
            detector, list(clear_frames) + list(night_frames)
        )
        counters = {
            name: (
                stats.matched,
                stats.false_positives,
                stats.label_correct,
                stats.gt_objects,
                stats.iou_sum.hex(),
            )
            for name, stats in profile.by_category.items()
        }
        assert counters == {
            "clear": (254, 19, 246, 669, "0x1.a270e7081b40cp+7"),
            "night": (70, 47, 68, 435, "0x1.86608824be4f4p+5"),
        }


class TestRankByRecall:
    def test_specialist_ranks_first_in_domain(self, night_frames):
        detectors = [
            SimulatedDetector(make_profile("yolov7-tiny", "clear"), seed=1),
            SimulatedDetector(make_profile("yolov7-tiny", "night"), seed=2),
            SimulatedDetector(make_profile("yolov7-tiny", "rainy"), seed=3),
        ]
        ranking = rank_by_recall(detectors, night_frames)
        assert ranking[0][0] == "yolov7-tiny-night"
        # Recalls are sorted descending.
        recalls = [value for _, value in ranking]
        assert recalls == sorted(recalls, reverse=True)
