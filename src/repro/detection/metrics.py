"""Average Precision (AP) and mean AP, the paper's accuracy metric.

AP follows the all-point-interpolation definition cited by the paper
(PASCAL VOC 2010+ / COCO style): the area under the precision-recall curve
traced by sweeping the confidence threshold, with precision interpolated to
be monotonically non-increasing in recall.

Both the *true* AP (Eq. 2, against ground truth) and the *estimated* AP
(Eq. 3, against the reference model's boxes) use the same computation — only
the reference set differs, so the functions below simply take a reference
detection sequence.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.detection.matching import check_iou_threshold, greedy_match
from repro.detection.types import Detection, FrameDetections

__all__ = [
    "average_precision",
    "mean_average_precision",
    "coco_map",
    "COCO_IOU_THRESHOLDS",
]

#: The COCO evaluation IoU thresholds (0.50:0.05:0.95).
COCO_IOU_THRESHOLDS: tuple[float, ...] = tuple(
    round(0.5 + 0.05 * i, 2) for i in range(10)
)


def _fast_ap(
    preds: list[Detection], refs: list[Detection], iou_threshold: float
) -> float:
    """All-point-interpolated AP for a single-class pool, pure Python.

    Per-frame detection sets are tiny (a handful of boxes), so plain lists
    beat arrays here.  This is the AP hot path: the selection algorithms
    call it once per (frame, ensemble, class).
    """
    if not refs:
        return 1.0 if not preds else 0.0
    if not preds:
        return 0.0
    # Raw precision and recall after each prediction, in match order.
    precisions: list[float] = []
    recalls: list[float] = []
    tp = 0
    for rank, (_, ref, _) in enumerate(
        greedy_match(preds, refs, iou_threshold), start=1
    ):
        if ref >= 0:
            tp += 1
        precisions.append(tp / rank)
        recalls.append(tp / len(refs))
    # Monotone interpolation and area under the PR curve.
    for i in range(len(precisions) - 2, -1, -1):
        if precisions[i] < precisions[i + 1]:
            precisions[i] = precisions[i + 1]
    area = 0.0
    prev_recall = 0.0
    for p, r in zip(precisions, recalls, strict=True):
        area += (r - prev_recall) * p
        prev_recall = r
    return area


def average_precision(
    predictions: Sequence[Detection] | FrameDetections,
    references: Sequence[Detection] | FrameDetections,
    iou_threshold: float = 0.5,
    label: str | None = None,
) -> float:
    """All-point-interpolated AP for one class (or class-agnostic).

    Edge cases follow the usual evaluation conventions: with no reference
    boxes and no predictions the frame is perfectly explained and AP is 1.0;
    with references but no predictions (or vice versa) AP is 0.0.

    Raises:
        ValueError: If ``iou_threshold`` is not in ``(0, 1]``.
    """
    check_iou_threshold(iou_threshold)
    preds = [d for d in predictions if label is None or d.label == label]
    refs = [d for d in references if label is None or d.label == label]
    return _fast_ap(preds, refs, iou_threshold)


def mean_average_precision(
    predictions: Sequence[Detection] | FrameDetections,
    references: Sequence[Detection] | FrameDetections,
    iou_threshold: float = 0.5,
    labels: Sequence[str] | None = None,
) -> float:
    """Mean AP over classes (the paper's mAP for multi-class evaluation).

    Args:
        predictions: Predicted detections.
        references: Reference detections.
        iou_threshold: IoU needed for a true positive.
        labels: Classes to average over.  Defaults to the union of classes
            present in either set; if that union is empty, returns 1.0
            (nothing to detect, nothing predicted).

    Raises:
        ValueError: If ``iou_threshold`` is not in ``(0, 1]``.
    """
    check_iou_threshold(iou_threshold)
    preds = list(predictions)
    refs = list(references)
    if labels is None:
        label_set = sorted(
            {d.label for d in preds} | {d.label for d in refs}
        )
    else:
        label_set = list(labels)
    if not label_set:
        return 1.0
    # Group once instead of re-filtering the pools per class.
    preds_by_label: dict[str, list[Detection]] = {lbl: [] for lbl in label_set}
    refs_by_label: dict[str, list[Detection]] = {lbl: [] for lbl in label_set}
    for det in preds:
        if det.label in preds_by_label:
            preds_by_label[det.label].append(det)
    for det in refs:
        if det.label in refs_by_label:
            refs_by_label[det.label].append(det)
    total = 0.0
    for lbl in label_set:
        total += _fast_ap(preds_by_label[lbl], refs_by_label[lbl], iou_threshold)
    return total / len(label_set)


def coco_map(
    predictions: Sequence[Detection] | FrameDetections,
    references: Sequence[Detection] | FrameDetections,
    thresholds: Sequence[float] = COCO_IOU_THRESHOLDS,
    labels: Sequence[str] | None = None,
) -> float:
    """COCO-style mAP: mean over IoU thresholds 0.50:0.05:0.95.

    Averaging over stricter thresholds rewards localization quality, which
    is what separates coordinate-averaging fusion methods (WBF, NMW) from
    pure suppression (NMS) — the Section 5.2 comparison uses it for that
    reason.  Each threshold must be in ``(0, 1]``, as for
    :func:`mean_average_precision`.
    """
    if not thresholds:
        raise ValueError("thresholds must be non-empty")
    preds = list(predictions)
    refs = list(references)
    total = 0.0
    for threshold in thresholds:
        total += mean_average_precision(preds, refs, threshold, labels=labels)
    return total / len(thresholds)
