"""Property-based tests (hypothesis) for the box algebra."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detection.boxes import BBox, average_boxes, iou_matrix

coords = st.floats(
    min_value=-1000.0, max_value=1000.0, allow_nan=False, allow_infinity=False
)
sizes = st.floats(min_value=0.0, max_value=500.0, allow_nan=False)


@st.composite
def bboxes(draw):
    x1 = draw(coords)
    y1 = draw(coords)
    w = draw(sizes)
    h = draw(sizes)
    return BBox(x1, y1, x1 + w, y1 + h)


@given(bboxes(), bboxes())
def test_iou_symmetric(a, b):
    assert math.isclose(a.iou(b), b.iou(a), abs_tol=1e-12)


@given(bboxes(), bboxes())
def test_iou_in_unit_interval(a, b):
    value = a.iou(b)
    assert 0.0 <= value <= 1.0


@given(bboxes())
def test_iou_self_is_one_for_positive_area(box):
    if box.area > 0:
        assert math.isclose(box.iou(box), 1.0)
    else:
        assert box.iou(box) == 0.0


@given(bboxes(), bboxes())
def test_intersection_bounded_by_min_area(a, b):
    inter = a.intersection(b)
    assert inter <= min(a.area, b.area) + 1e-9
    assert inter >= 0.0


@given(bboxes(), bboxes())
def test_enclosing_contains_both(a, b):
    hull = a.enclosing(b)
    for box in (a, b):
        assert hull.x1 <= box.x1 and box.x2 <= hull.x2
        assert hull.y1 <= box.y1 and box.y2 <= hull.y2


@given(bboxes(), st.floats(min_value=-100, max_value=100), st.floats(min_value=-100, max_value=100))
def test_translate_preserves_area(box, dx, dy):
    moved = box.translate(dx, dy)
    assert math.isclose(moved.area, box.area, rel_tol=1e-9, abs_tol=1e-9)


@given(bboxes(), st.floats(min_value=1.0, max_value=2000.0), st.floats(min_value=1.0, max_value=2000.0))
def test_clip_stays_within_frame(box, width, height):
    clipped = box.clip(width, height)
    assert 0.0 <= clipped.x1 <= clipped.x2 <= width
    assert 0.0 <= clipped.y1 <= clipped.y2 <= height


@given(st.lists(bboxes(), min_size=1, max_size=8))
def test_average_boxes_within_hull(boxes):
    avg = average_boxes(boxes)
    hull = boxes[0]
    for box in boxes[1:]:
        hull = hull.enclosing(box)
    assert hull.x1 - 1e-6 <= avg.x1 and avg.x2 <= hull.x2 + 1e-6
    assert hull.y1 - 1e-6 <= avg.y1 and avg.y2 <= hull.y2 + 1e-6


@given(st.lists(bboxes(), min_size=1, max_size=6), st.lists(bboxes(), min_size=1, max_size=6))
@settings(max_examples=50)
def test_iou_matrix_consistent_with_scalar(a, b):
    matrix = iou_matrix(a, b)
    assert matrix.shape == (len(a), len(b))
    for i in range(len(a)):
        for j in range(len(b)):
            assert math.isclose(matrix[i, j], a[i].iou(b[j]), abs_tol=1e-9)
