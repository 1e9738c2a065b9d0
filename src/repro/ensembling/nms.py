"""Classic Non-Maximum Suppression over a pooled detection set.

NMS keeps the highest-confidence detection in each overlap group and drops
the rest (Girshick et al., 2014).  Applied to a pool of boxes from several
models, it is the simplest model-ensembling method: the surviving box for
each object is whichever model was most confident about it.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.detection.types import Detection
from repro.ensembling.base import EnsembleMethod

__all__ = ["NonMaximumSuppression"]


class NonMaximumSuppression(EnsembleMethod):
    """Hard NMS with a configurable IoU threshold.

    Args:
        iou_threshold: Boxes overlapping a kept box with IoU strictly above
            this value are suppressed.  Standard value 0.5.
        confidence_threshold: Detections below this confidence are dropped
            before suppression.
    """

    name = "nms"

    def __init__(
        self, iou_threshold: float = 0.5, confidence_threshold: float = 0.0
    ) -> None:
        if not 0.0 <= iou_threshold <= 1.0:
            raise ValueError("iou_threshold must be in [0, 1]")
        if not 0.0 <= confidence_threshold <= 1.0:
            raise ValueError("confidence_threshold must be in [0, 1]")
        self.iou_threshold = iou_threshold
        self.confidence_threshold = confidence_threshold

    def _fuse_class(
        self, detections: Sequence[Detection], num_models: int
    ) -> list[Detection]:
        candidates = [
            d for d in detections if d.confidence >= self.confidence_threshold
        ]
        order = sorted(candidates, key=lambda d: d.confidence, reverse=True)
        kept: list[Detection] = []
        for det in order:
            suppressed = any(
                det.box.iou(k.box) > self.iou_threshold for k in kept
            )
            if not suppressed:
                kept.append(det)
        return kept
