"""Unit tests for Soft-NMS."""

import math

import pytest

from repro.detection.boxes import BBox
from repro.detection.types import Detection, FrameDetections
from repro.ensembling.soft_nms import SoftNMS


def frame(dets, index=0):
    return FrameDetections(index, tuple(dets))


def det(x1, y1, x2, y2, conf, label="car", source="m1"):
    return Detection(BBox(x1, y1, x2, y2), conf, label, source=source)


class TestSoftNMS:
    def test_gaussian_decay_keeps_overlapping_box_with_lower_conf(self):
        soft = SoftNMS(method="gaussian", sigma=0.5, score_threshold=0.05)
        result = soft.fuse(
            [frame([det(0, 0, 10, 10, 0.9), det(1, 0, 11, 10, 0.8)])]
        )
        assert len(result) == 2
        confs = sorted((d.confidence for d in result), reverse=True)
        assert confs[0] == 0.9
        # The second box decayed below its original confidence.
        assert confs[1] < 0.8

    def test_gaussian_decay_factor_value(self):
        soft = SoftNMS(method="gaussian", sigma=0.5)
        a = det(0, 0, 10, 10, 0.9)
        b = det(0, 0, 10, 10, 0.8)  # IoU 1 with a
        result = soft.fuse([frame([a, b])])
        decayed = min(d.confidence for d in result)
        assert decayed == pytest.approx(0.8 * math.exp(-1.0 / 0.5))

    def test_linear_decay_only_above_threshold(self):
        soft = SoftNMS(method="linear", iou_threshold=0.5, score_threshold=0.01)
        a = det(0, 0, 10, 10, 0.9)
        far = det(100, 100, 110, 110, 0.8)  # no overlap: untouched
        result = soft.fuse([frame([a, far])])
        assert {d.confidence for d in result} == {0.9, 0.8}

    def test_linear_decay_applies(self):
        soft = SoftNMS(method="linear", iou_threshold=0.3, score_threshold=0.01)
        a = det(0, 0, 10, 10, 0.9)
        b = det(0, 0, 10, 10, 0.6)  # IoU 1 -> conf *= (1 - 1) = 0
        result = soft.fuse([frame([a, b])])
        assert len(result) == 1

    def test_score_threshold_drops_decayed(self):
        soft = SoftNMS(method="gaussian", sigma=0.1, score_threshold=0.5)
        a = det(0, 0, 10, 10, 0.9)
        b = det(0, 0, 10, 10, 0.8)  # decays to 0.8*exp(-10) ~ 0
        result = soft.fuse([frame([a, b])])
        assert len(result) == 1

    def test_invalid_method(self):
        with pytest.raises(ValueError):
            SoftNMS(method="cubic")

    def test_invalid_sigma(self):
        # A NaN sigma kept only the first of two overlapping boxes, and an
        # infinite one kept both undecayed, when they were accepted.
        for sigma in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="sigma"):
                SoftNMS(sigma=sigma)

    def test_classes_independent(self):
        soft = SoftNMS()
        result = soft.fuse(
            [
                frame(
                    [
                        det(0, 0, 10, 10, 0.9, label="car"),
                        det(0, 0, 10, 10, 0.9, label="bus"),
                    ]
                )
            ]
        )
        assert {d.confidence for d in result} == {0.9}
        assert len(result) == 2

    def test_repeated_decay_accumulates(self):
        # Three coincident boxes: the third decays from both survivors.
        soft = SoftNMS(method="gaussian", sigma=0.5, score_threshold=0.0)
        boxes = [det(0, 0, 10, 10, c) for c in (0.9, 0.8, 0.7)]
        result = soft.fuse([frame(boxes)])
        confs = sorted((d.confidence for d in result), reverse=True)
        factor = math.exp(-1.0 / 0.5)
        assert confs[1] == pytest.approx(0.8 * factor)
        assert confs[2] == pytest.approx(0.7 * factor * factor)
