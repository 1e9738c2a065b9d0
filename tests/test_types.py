"""Unit tests for Detection / FrameDetections value types."""

import pytest
from tests.conftest import make_detection

from repro.detection.boxes import BBox
from repro.detection.types import Detection, FrameDetections


class TestDetection:
    def test_valid(self):
        det = make_detection()
        assert det.label == "car"
        assert det.confidence == 0.9

    def test_confidence_bounds(self):
        with pytest.raises(ValueError):
            make_detection(conf=1.5)
        with pytest.raises(ValueError):
            make_detection(conf=-0.1)

    def test_empty_label_rejected(self):
        with pytest.raises(ValueError):
            Detection(BBox(0, 0, 1, 1), 0.5, "")

    def test_with_confidence(self):
        det = make_detection(conf=0.9, source="m1")
        updated = det.with_confidence(0.4)
        assert updated.confidence == 0.4
        assert updated.source == "m1"
        assert updated.box == det.box
        assert det.confidence == 0.9  # original untouched


class TestFrameDetections:
    def test_basic_container(self):
        dets = FrameDetections(0, (make_detection(), make_detection(label="bus")))
        assert len(dets) == 2
        assert bool(dets)
        assert tuple(d.label for d in dets) == ("car", "bus")

    def test_empty(self):
        dets = FrameDetections(3)
        assert len(dets) == 0
        assert not dets

    def test_negative_frame_rejected(self):
        with pytest.raises(ValueError):
            FrameDetections(-1)

    def test_list_coerced_to_tuple(self):
        dets = FrameDetections(0, [make_detection()])
        assert isinstance(dets.detections, tuple)

    def test_by_label_groups(self):
        dets = FrameDetections(
            0,
            (
                make_detection(label="car"),
                make_detection(label="car"),
                make_detection(label="bus"),
            ),
        )
        groups = dets.by_label()
        assert sorted(groups) == ["bus", "car"]
        assert len(groups["car"]) == 2

    def test_pool(self):
        parts = [
            FrameDetections(5, (make_detection(),)),
            FrameDetections(5, (make_detection(label="bus"),)),
        ]
        pooled = FrameDetections.pool(5, parts)
        assert len(pooled) == 2
        assert pooled.frame_index == 5

    def test_pool_frame_mismatch(self):
        with pytest.raises(ValueError):
            FrameDetections.pool(1, [FrameDetections(2, (make_detection(),))])

