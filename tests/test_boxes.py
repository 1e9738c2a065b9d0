"""Unit tests for the bounding-box algebra."""


import numpy as np
import pytest

from repro.detection.boxes import (
    BBox,
    array_to_boxes,
    average_boxes,
    boxes_to_array,
    iou_matrix,
)


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
        assert box.as_tuple() == (8.0, 17.0, 12.0, 23.0)
        assert box.center == (10.0, 20.0)

    def test_from_center_negative_size_rejected(self):
        with pytest.raises(ValueError):
            BBox.from_center(0, 0, -1.0, 2.0)

    def test_from_xywh(self):
        box = BBox.from_xywh(1.0, 2.0, 3.0, 4.0)
        assert box.as_tuple() == (1.0, 2.0, 4.0, 6.0)

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

    def test_union_area(self):
        a = BBox(0, 0, 4, 4)
        b = BBox(2, 2, 6, 6)
        assert a.union_area(b) == 16 + 16 - 4

    def test_enclosing(self):
        a = BBox(0, 0, 2, 2)
        b = BBox(5, 5, 7, 9)
        assert a.enclosing(b).as_tuple() == (0, 0, 7, 9)

    def test_translate(self):
        box = BBox(1, 1, 2, 2).translate(3, -1)
        assert box.as_tuple() == (4, 0, 5, 1)

    def test_scale_doubles_area_factor_squared(self):
        box = BBox(0, 0, 4, 4).scale(2.0)
        assert box.area == pytest.approx(64.0)
        assert box.center == (2.0, 2.0)

    def test_scale_invalid(self):
        with pytest.raises(ValueError):
            BBox(0, 0, 1, 1).scale(0.0)

    def test_clip_inside_noop(self):
        box = BBox(1, 1, 5, 5).clip(10, 10)
        assert box.as_tuple() == (1, 1, 5, 5)

    def test_clip_partially_outside(self):
        box = BBox(-5, -5, 5, 5).clip(10, 10)
        assert box.as_tuple() == (0, 0, 5, 5)

    def test_clip_fully_outside_collapses(self):
        box = BBox(20, 20, 30, 30).clip(10, 10)
        assert box.area == 0.0

    def test_contains_point(self):
        box = BBox(0, 0, 10, 10)
        assert box.contains_point(5, 5)
        assert box.contains_point(0, 0)  # inclusive edge
        assert not box.contains_point(11, 5)

    def test_contains_box(self):
        assert BBox(0, 0, 10, 10).contains_box(BBox(1, 1, 9, 9))
        assert not BBox(0, 0, 10, 10).contains_box(BBox(5, 5, 11, 9))


class TestArrays:
    def test_roundtrip(self):
        boxes = [BBox(0, 0, 1, 1), BBox(2, 3, 4, 5)]
        assert array_to_boxes(boxes_to_array(boxes)) == boxes

    def test_empty_array(self):
        assert boxes_to_array([]).shape == (0, 4)
        assert array_to_boxes(np.zeros((0, 4))) == []

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            array_to_boxes(np.zeros((3, 3)))

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
        assert avg.as_tuple() == (1, 1, 3, 3)

    def test_weighted_average(self):
        avg = average_boxes(
            [BBox(0, 0, 2, 2), BBox(2, 2, 4, 4)], weights=[3.0, 1.0]
        )
        assert avg.as_tuple() == (0.5, 0.5, 2.5, 2.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            average_boxes([])

    def test_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            average_boxes([BBox(0, 0, 1, 1)], weights=[0.0])

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            average_boxes([BBox(0, 0, 1, 1), BBox(0, 0, 2, 2)], weights=[1, -1])

    def test_mismatched_weights_rejected(self):
        with pytest.raises(ValueError):
            average_boxes([BBox(0, 0, 1, 1)], weights=[1.0, 2.0])
