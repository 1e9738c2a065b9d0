"""Greedy box matching: the VOC match and the IoU assignment.

:func:`greedy_match` is the VOC greedy match of AP scoring.  Predictions
are visited in decreasing confidence order (a stable sort, so equal
confidences keep their input order).  Each takes the untaken reference of
highest IoU at or above the threshold; when two references tie on IoU,
the later one wins.  The match is class-agnostic: AP scoring calls it
once per class pool, and calibration calls it on a whole frame.  The same
protocol serves two roles:

* scoring detections against ground truth (true AP, Eq. 2 of the paper), and
* scoring detections against the reference model's boxes (estimated AP,
  Eq. 3), where the "ground truth" is simply ``BBox_{REF|v}``.

:func:`greedy_iou_assignment` pairs two box lists by overlap alone, with
no confidence order: the highest-IoU pair first.  It serves frame
skipping's scene similarity, the IoU tracker's association and the
tracking metrics.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from repro.detection.boxes import BBox, iou_matrix
from repro.detection.types import Detection

__all__ = ["check_iou_threshold", "greedy_iou_assignment", "greedy_match"]


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


def greedy_iou_assignment(
    rows: Sequence[BBox],
    cols: Sequence[BBox],
    min_iou: float,
    allowed: Callable[[int, int], bool] | None = None,
) -> list[tuple[int, int, float]]:
    """Pair ``rows`` with ``cols`` one to one, greedily by descending IoU.

    The candidate pairs, every ``(row, col)`` that ``allowed`` admits (all
    of them by default), are visited in descending ``(iou, row, col)``
    order.  A pair is taken when its IoU is at least ``min_iou`` and
    neither its row nor its column is taken yet.

    Returns:
        The taken ``(row_index, col_index, iou)`` triples, in visit order.
    """
    ious = iou_matrix(rows, cols).tolist()
    candidates = sorted(
        (
            (ious[i][j], i, j)
            for i in range(len(rows))
            for j in range(len(cols))
            if allowed is None or allowed(i, j)
        ),
        reverse=True,
    )
    taken_rows: set[int] = set()
    taken_cols: set[int] = set()
    pairs: list[tuple[int, int, float]] = []
    for iou, i, j in candidates:
        if iou < min_iou:
            break
        if i in taken_rows or j in taken_cols:
            continue
        taken_rows.add(i)
        taken_cols.add(j)
        pairs.append((i, j, iou))
    return pairs
