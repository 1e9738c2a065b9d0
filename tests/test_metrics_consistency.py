"""Cross-validation of the AP hot path, the match kernel and coco_map.

The pure-Python kernel (``greedy_match``) and the AP built on it must
equal the numpy oracle in ``tests/voc_oracle.py`` bit for bit: they
implement the same VOC protocol by different code paths, so exact
property-based agreement is the strongest regression guard for both.
Boxes and confidences are partly drawn from small palettes, so pools hold
duplicate boxes and equal confidences, and zero sides give zero-area
boxes: the stable confidence order and the IoU tie rule are exercised.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from tests.voc_oracle import match_detections, precision_recall_curve

from repro.detection.boxes import BBox
from repro.detection.matching import greedy_match
from repro.detection.metrics import (
    COCO_IOU_THRESHOLDS,
    average_precision,
    coco_map,
    mean_average_precision,
)
from repro.detection.types import Detection

corners = st.floats(min_value=0, max_value=400)
sides = st.one_of(st.just(0.0), st.floats(min_value=2, max_value=150))
fresh_boxes = st.builds(
    lambda x, y, w, h: BBox(x, y, x + w, y + h), corners, corners, sides, sides
)
confs = st.one_of(
    st.sampled_from([0.3, 0.6, 0.9]), st.floats(min_value=0.01, max_value=0.99)
)
thresholds = st.sampled_from([0.3, 0.5, 0.75, 1.0])


@st.composite
def pools(draw, labels=("car",)):
    """A ``(predictions, references)`` pair over one shared box palette."""
    palette = draw(st.lists(fresh_boxes, min_size=1, max_size=4))
    detection = st.builds(
        Detection,
        st.one_of(st.sampled_from(palette), fresh_boxes),
        confs,
        st.sampled_from(labels),
    )
    det_lists = st.lists(detection, max_size=10)
    return draw(det_lists), draw(det_lists)


def oracle_ap(preds, refs, threshold, label=None):
    """AP by the numpy PR curve, with the no-reference convention."""
    if any(label is None or d.label == label for d in refs):
        return precision_recall_curve(preds, refs, threshold, label).auc()
    return 0.0 if any(label is None or d.label == label for d in preds) else 1.0


@given(pools(), thresholds)
@settings(max_examples=120)
def test_fast_ap_matches_reference_implementation(pool, threshold):
    preds, refs = pool
    assert average_precision(preds, refs, threshold) == oracle_ap(
        preds, refs, threshold
    )


@given(pools(labels=("car", "bus", "truck")), thresholds)
@settings(max_examples=120)
def test_map_matches_per_label_reference(pool, threshold):
    preds, refs = pool
    labels = sorted({d.label for d in preds} | {d.label for d in refs})
    expected = 1.0
    if labels:
        total = 0.0
        for label in labels:
            total += oracle_ap(preds, refs, threshold, label)
        expected = total / len(labels)
    assert mean_average_precision(preds, refs, threshold) == expected


@given(pools(labels=("car", "bus")), thresholds)
@settings(max_examples=120)
def test_match_kernel_matches_numpy_matcher(pool, threshold):
    preds, refs = pool
    matches = greedy_match(preds, refs, threshold)
    oracle = match_detections(preds, refs, threshold, class_aware=False)
    assert sorted(pred for pred, _, _ in matches) == list(range(len(preds)))
    assert tuple((p, r) for p, r, _ in matches if r >= 0) == oracle.pairs
    assert tuple(iou for _, r, iou in matches if r >= 0) == oracle.ious
    unmatched = sorted(p for p, r, _ in matches if r < 0)
    assert tuple(unmatched) == oracle.unmatched_predictions


class TestCocoMap:
    def _make(self, x1, y1, x2, y2, conf=0.9, label="car"):
        return Detection(BBox(x1, y1, x2, y2), conf, label)

    def test_thresholds_constant(self):
        assert COCO_IOU_THRESHOLDS[0] == 0.5
        assert COCO_IOU_THRESHOLDS[-1] == 0.95
        assert len(COCO_IOU_THRESHOLDS) == 10

    def test_perfect_boxes_score_one(self):
        refs = [self._make(0, 0, 100, 100)]
        assert coco_map(refs, refs) == pytest.approx(1.0)

    def test_sloppy_boxes_score_below_map50(self):
        refs = [self._make(0, 0, 100, 100)]
        # 80% IoU-ish box: perfect at 0.5, failing at 0.85+.
        preds = [self._make(5, 5, 100, 100, conf=0.9)]
        map50 = mean_average_precision(preds, refs, 0.5)
        full = coco_map(preds, refs)
        assert full < map50

    def test_rewards_localization_quality(self):
        refs = [self._make(0, 0, 100, 100)]
        tight = [self._make(1, 1, 100, 100, conf=0.9)]
        loose = [self._make(12, 12, 112, 112, conf=0.9)]
        assert coco_map(tight, refs) > coco_map(loose, refs)

    def test_empty_thresholds_rejected(self):
        with pytest.raises(ValueError):
            coco_map([], [], thresholds=())

    def test_mean_over_thresholds(self):
        refs = [self._make(0, 0, 100, 100)]
        preds = [self._make(5, 5, 100, 100, conf=0.9)]
        manual = sum(
            mean_average_precision(preds, refs, t) for t in COCO_IOU_THRESHOLDS
        ) / len(COCO_IOU_THRESHOLDS)
        assert coco_map(preds, refs) == pytest.approx(manual)
