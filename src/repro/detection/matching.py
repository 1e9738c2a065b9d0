"""The VOC greedy match, the one matching protocol in this repo.

Predictions are visited in decreasing confidence order (a stable sort, so
equal confidences keep their input order).  Each takes the untaken
reference of highest IoU at or above the threshold; when two references
tie on IoU, the later one wins.  The match is class-agnostic: AP scoring
calls it once per class pool, and calibration calls it on a whole frame.
The same protocol serves two roles:

* scoring detections against ground truth (true AP, Eq. 2 of the paper), and
* scoring detections against the reference model's boxes (estimated AP,
  Eq. 3), where the "ground truth" is simply ``BBox_{REF|v}``.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.detection.types import Detection

__all__ = ["check_iou_threshold", "greedy_match"]


def check_iou_threshold(iou_threshold: float) -> None:
    """Reject a match threshold outside ``(0, 1]`` (NaN included)."""
    if not 0.0 < iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold must be in (0, 1], got {iou_threshold!r}")


def greedy_match(
    predictions: Sequence[Detection],
    references: Sequence[Detection],
    iou_threshold: float,
) -> list[tuple[int, int, float]]:
    """Greedily match predictions to references by decreasing confidence.

    Args:
        predictions: Predicted detections.
        references: Reference detections (ground truth or REF-model boxes).
        iou_threshold: Minimum IoU for a match; the public entries check it
            with :func:`check_iou_threshold`.

    Returns:
        One ``(prediction_index, reference_index, iou)`` triple per
        prediction, in the order the predictions were visited.  An
        unmatched prediction has reference index ``-1`` and IoU ``0.0``.
    """
    order = sorted(
        range(len(predictions)),
        key=lambda i: predictions[i].confidence,
        reverse=True,
    )
    ref_boxes = [r.box for r in references]
    taken = [False] * len(ref_boxes)
    matches: list[tuple[int, int, float]] = []
    for pi in order:
        box = predictions[pi].box
        best_iou = iou_threshold
        best_ref = -1
        for ri, ref_box in enumerate(ref_boxes):
            if taken[ri]:
                continue
            # Inline IoU: avoids method-call overhead in the innermost loop.
            iw = min(box.x2, ref_box.x2) - max(box.x1, ref_box.x1)
            if iw <= 0.0:
                continue
            ih = min(box.y2, ref_box.y2) - max(box.y1, ref_box.y1)
            if ih <= 0.0:
                continue
            inter = iw * ih
            union = box.area + ref_box.area - inter
            overlap = inter / union if union > 0.0 else 0.0
            if overlap >= best_iou:
                best_iou = overlap
                best_ref = ri
        if best_ref >= 0:
            taken[best_ref] = True
            matches.append((pi, best_ref, best_iou))
        else:
            matches.append((pi, -1, 0.0))
    return matches
