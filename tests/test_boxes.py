"""Unit tests for the bounding-box algebra."""

import math

import pytest

from repro.detection.boxes import BBox, average_boxes, iou_matrix


class TestBBoxConstruction:
    def test_valid_box(self):
        box = BBox(1.0, 2.0, 3.0, 5.0)
        assert box.width == 2.0
        assert box.height == 3.0
        assert box.area == 6.0

    def test_degenerate_box_allowed(self):
        box = BBox(1.0, 1.0, 1.0, 1.0)
        assert box.area == 0.0

    def test_inverted_x_rejected(self):
        with pytest.raises(ValueError):
            BBox(5.0, 0.0, 1.0, 1.0)

    def test_inverted_y_rejected(self):
        with pytest.raises(ValueError):
            BBox(0.0, 5.0, 1.0, 1.0)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            BBox(float("nan"), 0.0, 1.0, 1.0)

    def test_inf_rejected(self):
        with pytest.raises(ValueError):
            BBox(0.0, 0.0, float("inf"), 1.0)

    def test_from_center(self):
        box = BBox.from_center(10.0, 20.0, 4.0, 6.0)
        assert box == BBox(8.0, 17.0, 12.0, 23.0)
        assert box.center == (10.0, 20.0)

    def test_from_center_negative_size_rejected(self):
        with pytest.raises(ValueError):
            BBox.from_center(0, 0, -1.0, 2.0)

    def test_frozen(self):
        box = BBox(0, 0, 1, 1)
        with pytest.raises(AttributeError):
            box.x1 = 5.0


class TestIoU:
    def test_identical_boxes(self):
        box = BBox(0, 0, 10, 10)
        assert box.iou(box) == pytest.approx(1.0)

    def test_disjoint_boxes(self):
        assert BBox(0, 0, 1, 1).iou(BBox(5, 5, 6, 6)) == 0.0

    def test_touching_boxes_zero_iou(self):
        assert BBox(0, 0, 1, 1).iou(BBox(1, 0, 2, 1)) == 0.0

    def test_half_overlap(self):
        a = BBox(0, 0, 10, 10)
        b = BBox(5, 0, 15, 10)
        # intersection 50, union 150
        assert a.iou(b) == pytest.approx(1.0 / 3.0)

    def test_contained_box(self):
        outer = BBox(0, 0, 10, 10)
        inner = BBox(2, 2, 4, 4)
        assert outer.iou(inner) == pytest.approx(inner.area / outer.area)

    def test_degenerate_boxes(self):
        a = BBox(1, 1, 1, 1)
        assert a.iou(a) == 0.0

    def test_symmetry(self):
        a = BBox(0, 0, 7, 3)
        b = BBox(2, 1, 9, 8)
        assert a.iou(b) == pytest.approx(b.iou(a))


class TestBoxOps:
    def test_intersection_area(self):
        a = BBox(0, 0, 4, 4)
        b = BBox(2, 2, 6, 6)
        assert a.intersection(b) == 4.0

    def test_enclosing(self):
        a = BBox(0, 0, 2, 2)
        b = BBox(5, 5, 7, 9)
        assert a.enclosing(b) == BBox(0, 0, 7, 9)

    def test_translate(self):
        box = BBox(1, 1, 2, 2).translate(3, -1)
        assert box == BBox(4, 0, 5, 1)

    def test_clip_inside_noop(self):
        box = BBox(1, 1, 5, 5).clip(10, 10)
        assert box == BBox(1, 1, 5, 5)

    def test_clip_partially_outside(self):
        box = BBox(-5, -5, 5, 5).clip(10, 10)
        assert box == BBox(0, 0, 5, 5)

    def test_clip_fully_outside_collapses(self):
        box = BBox(20, 20, 30, 30).clip(10, 10)
        assert box.area == 0.0


class TestArrays:
    def test_iou_matrix_matches_scalar(self):
        a = [BBox(0, 0, 10, 10), BBox(5, 5, 15, 15)]
        b = [BBox(0, 0, 10, 10), BBox(100, 100, 110, 110), BBox(8, 8, 12, 12)]
        matrix = iou_matrix(a, b)
        assert matrix.shape == (2, 3)
        for i, box_a in enumerate(a):
            for j, box_b in enumerate(b):
                assert matrix[i, j] == pytest.approx(box_a.iou(box_b))

    def test_iou_matrix_empty(self):
        assert iou_matrix([], [BBox(0, 0, 1, 1)]).shape == (0, 1)
        assert iou_matrix([BBox(0, 0, 1, 1)], []).shape == (1, 0)


class TestAverageBoxes:
    def test_uniform_average(self):
        avg = average_boxes([BBox(0, 0, 2, 2), BBox(2, 2, 4, 4)])
        assert avg == BBox(1, 1, 3, 3)

    def test_weighted_average(self):
        avg = average_boxes(
            [BBox(0, 0, 2, 2), BBox(2, 2, 4, 4)], weights=[3.0, 1.0]
        )
        assert avg == BBox(0.5, 0.5, 2.5, 2.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            average_boxes([])

    def test_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            average_boxes([BBox(0, 0, 1, 1)], weights=[0.0])

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            average_boxes([BBox(0, 0, 1, 1), BBox(0, 0, 2, 2)], weights=[1, -1])

    def test_non_finite_weights_rejected(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="weights must be finite"):
                average_boxes([BBox(0, 0, 1, 1), BBox(0, 0, 2, 2)], weights=[1.0, bad])

    def test_mismatched_weights_rejected(self):
        with pytest.raises(ValueError):
            average_boxes([BBox(0, 0, 1, 1)], weights=[1.0, 2.0])
