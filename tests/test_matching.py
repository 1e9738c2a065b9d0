"""Unit tests for greedy IoU matching.

``TestGreedyMatch`` covers the VOC kernel, ``TestGreedyIoUAssignment`` the
overlap-only assignment of tracking and frame skipping, and
``TestMatchDetections`` checks the numpy matcher in ``tests/voc_oracle.py``
that the agreement tests compare the VOC kernel against.
"""

import math

import pytest
from tests.voc_oracle import match_detections

from repro.detection.boxes import BBox
from repro.detection.matching import greedy_iou_assignment, greedy_match
from repro.detection.metrics import (
    average_precision,
    coco_map,
    mean_average_precision,
)
from repro.detection.types import Detection
from repro.simulation.calibration import estimate_profile, rank_by_recall
from repro.simulation.detectors import SimulatedDetector
from repro.simulation.profiles import make_profile


def det(x1, y1, x2, y2, conf=0.9, label="car"):
    return Detection(BBox(x1, y1, x2, y2), conf, label)


class TestGreedyMatch:
    def test_perfect_match(self):
        matches = greedy_match([det(0, 0, 10, 10)], [det(0, 0, 10, 10)], 0.5)
        assert matches == [(0, 0, 1.0)]

    def test_unmatched_predictions(self):
        far = [det(50, 50, 60, 60)]
        assert greedy_match([det(0, 0, 1, 1)], far, 0.5) == [(0, -1, 0.0)]
        assert greedy_match([det(0, 0, 1, 1)], [], 0.5) == [(0, -1, 0.0)]
        assert greedy_match([], far, 0.5) == []

    def test_decreasing_confidence_stable_order(self):
        preds = [
            det(0, 0, 10, 10, conf=0.5),
            det(100, 100, 110, 110, conf=0.9),
            det(0, 0, 10, 10, conf=0.5),
        ]
        matches = greedy_match(preds, [det(0, 0, 10, 10)], 0.5)
        assert matches == [(1, -1, 0.0), (0, 0, 1.0), (2, -1, 0.0)]

    def test_highest_iou_reference_wins(self):
        refs = [det(1, 0, 11, 10), det(2, 0, 12, 10)]  # IoU 90/110, 80/120
        matches = greedy_match([det(0, 0, 10, 10)], refs, 0.5)
        assert matches == [(0, 0, 90.0 / 110.0)]

    def test_later_reference_wins_an_iou_tie(self):
        refs = [det(0, 0, 10, 10), det(0, 0, 10, 10)]
        assert greedy_match([det(0, 0, 10, 10)], refs, 0.5) == [(0, 1, 1.0)]

    def test_class_agnostic(self):
        refs = [det(0, 0, 10, 10, label="bus")]
        assert greedy_match([det(0, 0, 10, 10)], refs, 0.5) == [(0, 0, 1.0)]

    def test_threshold_is_inclusive(self):
        refs = [det(5, 0, 15, 10)]  # IoU 50 / 150
        iou = 50.0 / 150.0
        assert greedy_match([det(0, 0, 10, 10)], refs, iou) == [(0, 0, iou)]
        stricter = math.nextafter(iou, 1.0)
        assert greedy_match([det(0, 0, 10, 10)], refs, stricter) == [(0, -1, 0.0)]

    def test_zero_area_boxes_never_match(self):
        point = det(5, 5, 5, 5)
        assert greedy_match([point], [point], 1e-9) == [(0, -1, 0.0)]


@pytest.mark.parametrize(
    "threshold", [0.0, -0.5, 1.5, math.nan], ids=["0", "-0.5", "1.5", "nan"]
)
@pytest.mark.parametrize(
    "entry",
    [
        "average_precision",
        "mean_average_precision",
        "coco_map",
        "estimate_profile",
        "rank_by_recall",
    ],
)
def test_iou_threshold_outside_unit_interval_rejected(
    entry, threshold, simple_frame
):
    perfect = simple_frame.ground_truth_detections()
    detector = SimulatedDetector(make_profile("yolov7-tiny", "clear"), seed=1)
    calls = {
        "average_precision": lambda: average_precision(perfect, perfect, threshold),
        "mean_average_precision": lambda: mean_average_precision(
            perfect, perfect, threshold
        ),
        "coco_map": lambda: coco_map(perfect, perfect, thresholds=(threshold,)),
        "estimate_profile": lambda: estimate_profile(
            detector, [simple_frame], threshold
        ),
        "rank_by_recall": lambda: rank_by_recall(
            [detector], [simple_frame], threshold
        ),
    }
    with pytest.raises(ValueError, match=r"iou_threshold must be in \(0, 1\]"):
        calls[entry]()


class TestGreedyIoUAssignment:
    def test_highest_iou_first_and_one_to_one(self):
        # Both rows overlap column 1 best; row 0's IoU 1.0 takes it, so
        # row 1 falls back to column 0 (IoU 8/9 against its 0.9).
        rows = [BBox(0, 0, 10, 10), BBox(0, 0, 10, 9)]
        cols = [BBox(0, 0, 10, 8), BBox(0, 0, 10, 10)]
        pairs = greedy_iou_assignment(rows, cols, 0.1)
        assert [(i, j) for i, j, _ in pairs] == [(0, 1), (1, 0)]
        assert [iou for _, _, iou in pairs] == pytest.approx([1.0, 8 / 9])

    def test_iou_ties_visit_later_rows_first(self):
        rows = [BBox(0, 0, 10, 10), BBox(0, 0, 10, 10)]
        assert greedy_iou_assignment(rows, [BBox(0, 0, 10, 10)], 0.1) == [
            (1, 0, 1.0)
        ]

    def test_threshold_is_inclusive(self):
        rows, cols = [BBox(0, 0, 10, 10)], [BBox(0, 0, 10, 20)]
        assert greedy_iou_assignment(rows, cols, 0.5) == [(0, 0, 0.5)]
        assert greedy_iou_assignment(rows, cols, 0.6) == []

    def test_allowed_filters_candidate_pairs(self):
        rows = [BBox(0, 0, 10, 10)]
        cols = [BBox(0, 0, 10, 10), BBox(0, 0, 10, 20)]
        assert greedy_iou_assignment(
            rows, cols, 0.1, allowed=lambda i, j: j != 0
        ) == [(0, 1, 0.5)]
        assert greedy_iou_assignment(rows, cols, 0.1, allowed=lambda i, j: False) == []

    def test_empty_sides(self):
        assert greedy_iou_assignment([], [BBox(0, 0, 1, 1)], 0.1) == []
        assert greedy_iou_assignment([BBox(0, 0, 1, 1)], [], 0.1) == []


class TestMatchDetections:
    def test_perfect_match(self):
        preds = [det(0, 0, 10, 10)]
        refs = [det(0, 0, 10, 10)]
        result = match_detections(preds, refs)
        assert result.pairs == ((0, 0),)
        assert result.precision == 1.0
        assert result.recall == 1.0
        assert result.ious == (pytest.approx(1.0),)

    def test_no_overlap_no_match(self):
        result = match_detections([det(0, 0, 1, 1)], [det(50, 50, 60, 60)])
        assert result.pairs == ()
        assert result.false_positives == 1
        assert result.false_negatives == 1

    def test_empty_predictions(self):
        result = match_detections([], [det(0, 0, 1, 1)])
        assert result.unmatched_references == (0,)
        assert result.recall == 0.0

    def test_empty_references(self):
        result = match_detections([det(0, 0, 1, 1)], [])
        assert result.unmatched_predictions == (0,)
        assert result.precision == 0.0

    def test_both_empty(self):
        result = match_detections([], [])
        assert result.pairs == ()
        assert result.precision == 0.0
        assert result.f1 == 0.0

    def test_confidence_priority(self):
        # Two predictions compete for one reference; the more confident wins.
        preds = [det(0, 0, 10, 10, conf=0.5), det(1, 1, 11, 11, conf=0.9)]
        refs = [det(1, 1, 11, 11)]
        result = match_detections(preds, refs)
        assert result.pairs == ((1, 0),)
        assert result.unmatched_predictions == (0,)

    def test_class_aware_blocks_cross_label(self):
        preds = [det(0, 0, 10, 10, label="car")]
        refs = [det(0, 0, 10, 10, label="bus")]
        assert match_detections(preds, refs).pairs == ()
        result = match_detections(preds, refs, class_aware=False)
        assert result.pairs == ((0, 0),)

    def test_iou_threshold_respected(self):
        preds = [det(0, 0, 10, 10)]
        refs = [det(5, 0, 15, 10)]  # IoU = 1/3
        assert match_detections(preds, refs, iou_threshold=0.5).pairs == ()
        assert match_detections(preds, refs, iou_threshold=0.3).pairs == ((0, 0),)

    def test_one_to_one_matching(self):
        # One reference cannot absorb two predictions.
        preds = [det(0, 0, 10, 10, conf=0.9), det(0, 0, 10, 10, conf=0.8)]
        refs = [det(0, 0, 10, 10)]
        result = match_detections(preds, refs)
        assert result.true_positives == 1
        assert result.false_positives == 1

    def test_f1(self):
        preds = [det(0, 0, 10, 10), det(100, 100, 110, 110)]
        refs = [det(0, 0, 10, 10), det(50, 50, 60, 60)]
        result = match_detections(preds, refs)
        assert result.precision == 0.5
        assert result.recall == 0.5
        assert result.f1 == pytest.approx(0.5)

    def test_accepts_frame_detections(self, simple_frame):
        from repro.detection.types import FrameDetections

        gt = simple_frame.ground_truth_detections()
        frame_dets = FrameDetections(0, tuple(gt))
        result = match_detections(frame_dets, frame_dets)
        assert result.true_positives == len(gt)
