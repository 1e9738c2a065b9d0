"""Unit tests for NMW, Softer-NMS and ConsensusFusion."""

import math

import pytest

from repro.detection.boxes import BBox
from repro.detection.types import Detection, FrameDetections
from repro.ensembling.fusion import ConsensusFusion
from repro.ensembling.nmw import NonMaximumWeighted
from repro.ensembling.softer_nms import SofterNMS


def frame(dets, index=0, source=None):
    return FrameDetections(index, tuple(dets), source)


def det(x1, y1, x2, y2, conf, label="car", source="m1"):
    return Detection(BBox(x1, y1, x2, y2), conf, label, source=source)


class TestNMW:
    def test_fused_confidence_is_cluster_max(self):
        nmw = NonMaximumWeighted()
        result = nmw.fuse(
            [
                frame([det(0, 0, 10, 10, 0.9, source="a")]),
                frame([det(1, 0, 11, 10, 0.5, source="b")]),
            ]
        )
        assert len(result) == 1
        assert result.detections[0].confidence == 0.9

    def test_coordinates_pulled_toward_best(self):
        nmw = NonMaximumWeighted()
        result = nmw.fuse(
            [
                frame([det(0, 0, 10, 10, 0.9, source="a")]),
                frame([det(2, 0, 12, 10, 0.1, source="b")]),
            ]
        )
        merged = result.detections[0]
        # Weight of the best box dominates: x1 closer to 0 than to 1.
        assert merged.box.x1 < 0.5

    def test_disjoint_preserved(self):
        nmw = NonMaximumWeighted()
        result = nmw.fuse(
            [frame([det(0, 0, 10, 10, 0.9), det(100, 100, 110, 110, 0.8)])]
        )
        assert len(result) == 2

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            NonMaximumWeighted(iou_threshold=2.0)


class TestSofterNMS:
    def test_refines_survivor_coordinates(self):
        softer = SofterNMS(vote_iou_threshold=0.5)
        result = softer.fuse(
            [
                frame([det(0, 0, 10, 10, 0.9, source="a")]),
                frame([det(2, 0, 12, 10, 0.85, source="b")]),
            ]
        )
        assert len(result) == 1
        merged = result.detections[0]
        # Voting pulls the box off the survivor's original corner.
        assert merged.box.x1 > 0.0
        assert merged.confidence == 0.9  # confidence untouched

    def test_isolated_box_unchanged(self):
        softer = SofterNMS()
        result = softer.fuse([frame([det(0, 0, 10, 10, 0.9)])])
        assert result.detections[0].box == BBox(0, 0, 10, 10)

    def test_suppression_still_applies(self):
        softer = SofterNMS(iou_threshold=0.5)
        result = softer.fuse(
            [frame([det(0, 0, 10, 10, 0.9), det(0, 0, 10, 10, 0.5)])]
        )
        assert len(result) == 1

    def test_invalid_sigma(self):
        # A NaN sigma made fuse() fail on a NaN box when it was accepted.
        for sigma in (-1.0, 0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="sigma"):
                SofterNMS(sigma=sigma)


class TestConsensusFusion:
    def test_agreement_boosts_confidence(self):
        fusion = ConsensusFusion()
        result = fusion.fuse(
            [
                frame([det(0, 0, 10, 10, 0.6, source="a")]),
                frame([det(0, 0, 10, 10, 0.6, source="b")]),
            ]
        )
        merged = result.detections[0]
        # 1 - 0.4 * 0.4 = 0.84 > either input confidence.
        assert merged.confidence == pytest.approx(0.84)

    def test_min_votes_filters_lone_detections(self):
        fusion = ConsensusFusion(min_votes=2)
        result = fusion.fuse(
            [
                frame([det(0, 0, 10, 10, 0.9, source="a")]),
                frame([det(100, 100, 110, 110, 0.9, source="b")]),
            ]
        )
        # Each box seen by a single model only.
        assert len(result) == 0

    def test_min_votes_capped_by_pool_size(self):
        fusion = ConsensusFusion(min_votes=3)
        result = fusion.fuse([frame([det(0, 0, 10, 10, 0.9, source="a")])])
        # Single-model ensembles can still produce output.
        assert len(result) == 1

    def test_one_vote_per_model(self):
        fusion = ConsensusFusion()
        result = fusion.fuse(
            [
                frame(
                    [
                        det(0, 0, 10, 10, 0.6, source="a"),
                        det(1, 0, 11, 10, 0.5, source="a"),
                    ]
                ),
            ]
        )
        merged = result.detections[0]
        # Same model twice: only its best detection votes -> conf 0.6.
        assert merged.confidence == pytest.approx(0.6)

    def test_invalid_min_votes(self):
        # A NaN min_votes turned the vote gate off when it was accepted.
        for min_votes in (0, -1, math.nan, 1.5, 2.0, True, "2"):
            with pytest.raises(ValueError, match="min_votes"):
                ConsensusFusion(min_votes=min_votes)
