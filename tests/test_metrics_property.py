"""Property-based tests for AP metrics."""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.detection.boxes import BBox
from repro.detection.metrics import average_precision, mean_average_precision
from repro.detection.types import Detection

labels = st.sampled_from(["car", "bus", "pedestrian"])
confs = st.floats(min_value=0.01, max_value=0.99)


@st.composite
def detections(draw, label=None):
    x1 = draw(st.floats(min_value=0, max_value=500))
    y1 = draw(st.floats(min_value=0, max_value=500))
    w = draw(st.floats(min_value=1, max_value=200))
    h = draw(st.floats(min_value=1, max_value=200))
    return Detection(
        BBox(x1, y1, x1 + w, y1 + h),
        draw(confs),
        label if label is not None else draw(labels),
    )


det_lists = st.lists(detections(), min_size=0, max_size=8)


@given(det_lists, det_lists)
@settings(max_examples=80)
def test_ap_in_unit_interval(preds, refs):
    value = average_precision(preds, refs)
    assert 0.0 <= value <= 1.0 + 1e-9


@given(det_lists)
@settings(max_examples=40)
def test_ap_of_reference_against_itself_is_perfect(refs):
    # Degenerate zero-area boxes can never match (IoU 0), so restrict.
    refs = [r for r in refs if r.box.area > 0]
    assert average_precision(refs, refs) == 1.0


@given(det_lists, det_lists)
@settings(max_examples=60)
def test_map_in_unit_interval(preds, refs):
    value = mean_average_precision(preds, refs)
    assert 0.0 <= value <= 1.0 + 1e-9


def _rescaled(preds):
    """The same detections, their confidences on another scale.

    Each confidence maps through its rank among the distinct confidences,
    so the map preserves every pair's order exactly: equal confidences
    stay equal and distinct ones stay apart.  (A smooth map such as
    ``0.05 + 0.9 * c**2`` rounds 0.01 and 0.010000000000000002 to one
    float, a tie that reorders the greedy match.)
    """
    distinct = sorted({d.confidence for d in preds})
    rank = {c: i + 1 for i, c in enumerate(distinct)}
    return [
        d.with_confidence(0.05 + 0.9 * (rank[d.confidence] / len(distinct)) ** 2)
        for d in preds
    ]


@given(det_lists, det_lists)
@settings(max_examples=40)
@example(
    preds=[
        Detection(BBox(100, 100, 110, 110), 0.01, "car"),
        Detection(BBox(0, 0, 10, 10), 0.010000000000000002, "car"),
    ],
    refs=[Detection(BBox(0, 0, 10, 10), 0.5, "car")],
)
def test_ap_confidence_rescaling_invariance(preds, refs):
    """AP depends only on the confidence *ordering*, not magnitudes."""
    base = average_precision(preds, refs)
    rescaled = _rescaled(preds)
    assert math.isclose(
        average_precision(rescaled, refs), base, abs_tol=1e-9
    )


@given(st.lists(detections(), min_size=1, max_size=6), st.integers(min_value=1, max_value=4))
@settings(max_examples=60)
def test_trailing_false_positives_are_free_after_full_recall(refs, num_fps):
    """All-point AP ignores FPs ranked after full recall is reached."""
    refs = [r for r in refs if r.box.area > 0]
    if not refs:
        return
    perfect = [
        Detection(r.box, 0.95, r.label, source="oracle") for r in refs
    ]
    fps = [
        Detection(BBox(5000 + 20 * i, 5000, 5010 + 20 * i, 5010), 0.05, "car")
        for i in range(num_fps)
    ]
    assert average_precision(perfect + fps, refs) == 1.0
