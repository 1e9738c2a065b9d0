"""Unit tests for AP / mAP metrics.

``TestPRCurve`` checks the numpy PR-curve oracle in ``tests/voc_oracle.py``
that the agreement tests compare the AP hot path against.
"""

import pytest
from tests.voc_oracle import precision_recall_curve

from repro.detection.boxes import BBox
from repro.detection.metrics import average_precision, mean_average_precision
from repro.detection.types import Detection


def det(x1, y1, x2, y2, conf=0.9, label="car"):
    return Detection(BBox(x1, y1, x2, y2), conf, label)


class TestAveragePrecision:
    def test_perfect_detection(self):
        refs = [det(0, 0, 10, 10), det(50, 50, 80, 90)]
        assert average_precision(refs, refs) == pytest.approx(1.0)

    def test_empty_both_is_one(self):
        assert average_precision([], []) == 1.0

    def test_no_predictions_zero(self):
        assert average_precision([], [det(0, 0, 1, 1)]) == 0.0

    def test_only_false_positives_zero(self):
        assert average_precision([det(0, 0, 1, 1)], []) == 0.0

    def test_half_recall(self):
        refs = [det(0, 0, 10, 10), det(100, 100, 110, 110)]
        preds = [det(0, 0, 10, 10, conf=0.9)]
        # One TP at rank 1: precision 1.0 up to recall 0.5, nothing after.
        assert average_precision(preds, refs) == pytest.approx(0.5)

    def test_false_positive_before_true_positive(self):
        refs = [det(0, 0, 10, 10)]
        preds = [
            det(500, 500, 510, 510, conf=0.95),  # FP ranked first
            det(0, 0, 10, 10, conf=0.5),  # TP ranked second
        ]
        # Precision at the TP's rank is 1/2; AP = 0.5.
        assert average_precision(preds, refs) == pytest.approx(0.5)

    def test_true_positive_before_false_positive(self):
        refs = [det(0, 0, 10, 10)]
        preds = [
            det(0, 0, 10, 10, conf=0.95),
            det(500, 500, 510, 510, conf=0.5),
        ]
        # TP first: full recall achieved at precision 1; trailing FP is free.
        assert average_precision(preds, refs) == pytest.approx(1.0)

    def test_ap_monotone_in_extra_true_positive(self):
        refs = [det(0, 0, 10, 10), det(100, 100, 120, 120)]
        base = [det(0, 0, 10, 10, conf=0.9)]
        better = base + [det(100, 100, 120, 120, conf=0.5)]
        assert average_precision(better, refs) > average_precision(base, refs)

    def test_label_filter(self):
        refs = [det(0, 0, 10, 10, label="car"), det(50, 50, 60, 60, label="bus")]
        preds = [det(0, 0, 10, 10, label="car")]
        assert average_precision(preds, refs, label="car") == pytest.approx(1.0)
        assert average_precision(preds, refs, label="bus") == 0.0

    def test_iou_threshold(self):
        refs = [det(0, 0, 10, 10)]
        preds = [det(5, 0, 15, 10, conf=0.9)]  # IoU 1/3
        assert average_precision(preds, refs, iou_threshold=0.5) == 0.0
        assert average_precision(preds, refs, iou_threshold=0.3) == pytest.approx(1.0)


class TestMeanAveragePrecision:
    def test_two_classes(self):
        refs = [det(0, 0, 10, 10, label="car"), det(100, 100, 110, 110, label="bus")]
        preds = [det(0, 0, 10, 10, conf=0.9, label="car")]
        # car AP = 1.0, bus AP = 0.0
        assert mean_average_precision(preds, refs) == pytest.approx(0.5)

    def test_empty_everything(self):
        assert mean_average_precision([], []) == 1.0

    def test_explicit_labels(self):
        refs = [det(0, 0, 10, 10, label="car")]
        preds = [det(0, 0, 10, 10, label="car")]
        value = mean_average_precision(preds, refs, labels=["car", "bus"])
        # bus: nothing to detect and nothing predicted -> AP 1.0
        assert value == pytest.approx(1.0)

    def test_cross_label_never_matches(self):
        refs = [det(0, 0, 10, 10, label="car")]
        preds = [det(0, 0, 10, 10, conf=0.9, label="bus")]
        assert mean_average_precision(preds, refs) == 0.0


class TestPRCurve:
    def test_curve_shape(self):
        refs = [det(0, 0, 10, 10), det(100, 100, 110, 110)]
        preds = [
            det(0, 0, 10, 10, conf=0.9),
            det(500, 500, 510, 510, conf=0.7),
            det(100, 100, 110, 110, conf=0.5),
        ]
        curve = precision_recall_curve(preds, refs)
        assert curve.num_references == 2
        assert curve.recall == (0.5, 0.5, 1.0)
        assert curve.precision == (1.0, 0.5, pytest.approx(2.0 / 3.0))
        assert curve.confidences == (0.9, 0.7, 0.5)

    def test_interpolated_precision_monotone(self):
        refs = [det(0, 0, 10, 10), det(100, 100, 110, 110)]
        preds = [
            det(0, 0, 10, 10, conf=0.9),
            det(500, 500, 510, 510, conf=0.7),
            det(100, 100, 110, 110, conf=0.5),
        ]
        interp = precision_recall_curve(preds, refs).interpolated_precision()
        assert all(interp[i] >= interp[i + 1] for i in range(len(interp) - 1))

    def test_auc_matches_average_precision(self):
        refs = [det(0, 0, 10, 10), det(100, 100, 110, 110)]
        preds = [
            det(0, 0, 10, 10, conf=0.9),
            det(500, 500, 510, 510, conf=0.7),
            det(100, 100, 110, 110, conf=0.5),
        ]
        curve = precision_recall_curve(preds, refs)
        assert curve.auc() == pytest.approx(average_precision(preds, refs))

    def test_empty_curve(self):
        curve = precision_recall_curve([], [])
        assert curve.auc() == 0.0
        assert curve.interpolated_precision() == ()
