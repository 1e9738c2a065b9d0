"""The numpy VOC implementations the detection kernel is checked against.

``repro.detection.matching.greedy_match`` is the one VOC greedy match in
the product code.  The two independent numpy implementations below used
to live beside it and now serve only as test oracles: the agreement tests
in ``test_metrics_consistency.py`` require the kernel, AP and mAP to equal
them bit for bit.

* :func:`match_detections` matches through the vectorized
  :func:`~repro.detection.boxes.iou_matrix`, optionally class-aware.
* :func:`precision_recall_curve` builds the PR curve with numpy cumulative
  sums; :meth:`PRCurve.auc` is the all-point-interpolated AP.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.detection.boxes import iou_matrix
from repro.detection.types import Detection, FrameDetections


@dataclass(frozen=True)
class MatchResult:
    """Outcome of matching predictions against references for one frame.

    Attributes:
        pairs: ``(prediction_index, reference_index)`` matched pairs, indices
            into the *original* prediction / reference sequences.
        unmatched_predictions: Prediction indices with no matching reference
            (false positives at this threshold).
        unmatched_references: Reference indices never matched (false
            negatives / misses).
        ious: IoU of each matched pair, aligned with ``pairs``.
    """

    pairs: tuple[tuple[int, int], ...]
    unmatched_predictions: tuple[int, ...]
    unmatched_references: tuple[int, ...]
    ious: tuple[float, ...]

    @property
    def true_positives(self) -> int:
        return len(self.pairs)

    @property
    def false_positives(self) -> int:
        return len(self.unmatched_predictions)

    @property
    def false_negatives(self) -> int:
        return len(self.unmatched_references)

    @property
    def precision(self) -> float:
        total = self.true_positives + self.false_positives
        return self.true_positives / total if total else 0.0

    @property
    def recall(self) -> float:
        total = self.true_positives + self.false_negatives
        return self.true_positives / total if total else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if (p + r) > 0 else 0.0


def match_detections(
    predictions: Sequence[Detection] | FrameDetections,
    references: Sequence[Detection] | FrameDetections,
    iou_threshold: float = 0.5,
    class_aware: bool = True,
) -> MatchResult:
    """Greedily match predictions to references by decreasing confidence.

    Args:
        predictions: Predicted detections.
        references: Reference detections (ground truth or REF-model boxes).
        iou_threshold: Minimum IoU for a valid match, in ``(0, 1]``.
        class_aware: If True (the default, matching the VOC protocol), a
            prediction may only match a reference with the same label.

    Returns:
        A :class:`MatchResult` over original indices.
    """
    if not 0.0 < iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold must be in (0, 1], got {iou_threshold}")

    preds = list(predictions)
    refs = list(references)
    if not preds or not refs:
        return MatchResult(
            pairs=(),
            unmatched_predictions=tuple(range(len(preds))),
            unmatched_references=tuple(range(len(refs))),
            ious=(),
        )

    ious = iou_matrix([p.box for p in preds], [r.box for r in refs])
    if class_aware:
        pred_labels = np.asarray([p.label for p in preds], dtype=object)
        ref_labels = np.asarray([r.label for r in refs], dtype=object)
        label_ok = pred_labels[:, None] == ref_labels[None, :]
        ious = np.where(label_ok, ious, 0.0)

    order = sorted(
        range(len(preds)), key=lambda i: preds[i].confidence, reverse=True
    )
    ref_taken = [False] * len(refs)
    pairs: list[tuple[int, int]] = []
    pair_ious: list[float] = []
    unmatched_preds: list[int] = []

    for pi in order:
        row = ious[pi]
        best_ref = -1
        best_iou = iou_threshold
        for ri in range(len(refs)):
            if ref_taken[ri]:
                continue
            if row[ri] >= best_iou:
                best_iou = row[ri]
                best_ref = ri
        if best_ref >= 0:
            ref_taken[best_ref] = True
            pairs.append((pi, best_ref))
            pair_ious.append(float(best_iou))
        else:
            unmatched_preds.append(pi)

    unmatched_refs = [ri for ri, taken in enumerate(ref_taken) if not taken]
    return MatchResult(
        pairs=tuple(pairs),
        unmatched_predictions=tuple(sorted(unmatched_preds)),
        unmatched_references=tuple(unmatched_refs),
        ious=tuple(pair_ious),
    )


@dataclass(frozen=True)
class PRCurve:
    """A precision-recall curve for one class.

    Attributes:
        precision: Precision after each prediction (decreasing confidence).
        recall: Recall after each prediction.
        confidences: Confidence of each prediction, decreasing.
        num_references: Number of reference boxes of this class.
    """

    precision: tuple[float, ...]
    recall: tuple[float, ...]
    confidences: tuple[float, ...]
    num_references: int

    def interpolated_precision(self) -> tuple[float, ...]:
        """Precision made monotonically non-increasing in recall order."""
        if not self.precision:
            return ()
        interp = list(self.precision)
        for i in range(len(interp) - 2, -1, -1):
            interp[i] = max(interp[i], interp[i + 1])
        return tuple(interp)

    def auc(self) -> float:
        """Area under the interpolated curve (the AP value)."""
        if self.num_references == 0 or not self.recall:
            return 0.0
        interp = self.interpolated_precision()
        area = 0.0
        prev_recall = 0.0
        for p, r in zip(interp, self.recall, strict=True):
            area += (r - prev_recall) * p
            prev_recall = r
        return area


def _tp_fp_flags(
    predictions: Sequence[Detection],
    references: Sequence[Detection],
    iou_threshold: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-prediction TP flags and confidences, VOC greedy protocol.

    Predictions and references are assumed to already be restricted to a
    single class.  Returns ``(tp_flags, confidences)`` both ordered by
    decreasing confidence.
    """
    order = sorted(
        range(len(predictions)),
        key=lambda i: predictions[i].confidence,
        reverse=True,
    )
    confidences = np.asarray(
        [predictions[i].confidence for i in order], dtype=np.float64
    )
    tp = np.zeros(len(order), dtype=bool)
    if not references:
        return tp, confidences

    ious = iou_matrix(
        [predictions[i].box for i in order], [r.box for r in references]
    )
    taken = np.zeros(len(references), dtype=bool)
    for rank in range(len(order)):
        row = ious[rank]
        best_ref = -1
        best_iou = iou_threshold
        for ri in range(len(references)):
            if taken[ri]:
                continue
            if row[ri] >= best_iou:
                best_iou = row[ri]
                best_ref = ri
        if best_ref >= 0:
            taken[best_ref] = True
            tp[rank] = True
    return tp, confidences


def precision_recall_curve(
    predictions: Sequence[Detection] | FrameDetections,
    references: Sequence[Detection] | FrameDetections,
    iou_threshold: float = 0.5,
    label: str | None = None,
) -> PRCurve:
    """Precision-recall curve for one class.

    Args:
        predictions: Predicted detections (any classes; filtered by ``label``).
        references: Reference detections.
        iou_threshold: IoU needed for a true positive.
        label: The class to evaluate.  If None, all detections are treated
            as one class (single-class evaluation).

    Returns:
        The PR curve; empty curves have zero AUC.
    """
    preds = [d for d in predictions if label is None or d.label == label]
    refs = [d for d in references if label is None or d.label == label]

    tp, confidences = _tp_fp_flags(preds, refs, iou_threshold)
    if len(tp) == 0:
        return PRCurve((), (), (), len(refs))

    cum_tp = np.cumsum(tp)
    ranks = np.arange(1, len(tp) + 1)
    precision = cum_tp / ranks
    recall = cum_tp / len(refs) if refs else np.zeros_like(precision)

    return PRCurve(
        precision=tuple(float(p) for p in precision),
        recall=tuple(float(r) for r in recall),
        confidences=tuple(float(c) for c in confidences),
        num_references=len(refs),
    )


