"""Soft-NMS: decay overlapping confidences instead of discarding boxes.

Following Bodla et al. (2017), instead of removing a box that overlaps an
already-kept box, Soft-NMS multiplies its confidence by a decay factor that
grows with the overlap, then discards boxes whose decayed confidence falls
below a floor.  Two decay schedules are provided:

* ``linear``:   ``conf *= 1 - iou``            (when ``iou > threshold``)
* ``gaussian``: ``conf *= exp(-iou^2 / sigma)`` (always)
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from repro.detection.types import Detection
from repro.ensembling.base import EnsembleMethod

__all__ = ["SoftNMS"]


class SoftNMS(EnsembleMethod):
    """Soft-NMS with linear or gaussian confidence decay.

    Args:
        method: ``"linear"`` or ``"gaussian"``.
        iou_threshold: Overlap above which linear decay applies (unused by
            the gaussian schedule).
        sigma: Gaussian decay bandwidth; finite and positive.
        score_threshold: Boxes whose decayed confidence drops below this
            floor are discarded.
    """

    name = "soft_nms"

    def __init__(
        self,
        method: str = "gaussian",
        iou_threshold: float = 0.5,
        sigma: float = 0.5,
        score_threshold: float = 0.05,
    ) -> None:
        if method not in ("linear", "gaussian"):
            raise ValueError(f"unknown decay method {method!r}")
        if not 0.0 <= iou_threshold <= 1.0:
            raise ValueError("iou_threshold must be in [0, 1]")
        if not (math.isfinite(sigma) and sigma > 0):
            raise ValueError(f"sigma must be finite and positive, got {sigma!r}")
        if not 0.0 <= score_threshold <= 1.0:
            raise ValueError("score_threshold must be in [0, 1]")
        self.method = method
        self.iou_threshold = iou_threshold
        self.sigma = sigma
        self.score_threshold = score_threshold

    def _decay(self, overlap: float) -> float:
        if self.method == "linear":
            return 1.0 - overlap if overlap > self.iou_threshold else 1.0
        return math.exp(-(overlap * overlap) / self.sigma)

    def _fuse_class(
        self, detections: Sequence[Detection], num_models: int
    ) -> list[Detection]:
        remaining = sorted(
            detections, key=lambda d: d.confidence, reverse=True
        )
        kept: list[Detection] = []
        while remaining:
            # The current maximum is kept as-is; the rest decay toward it.
            best_idx = max(
                range(len(remaining)), key=lambda i: remaining[i].confidence
            )
            best = remaining.pop(best_idx)
            if best.confidence < self.score_threshold:
                break
            kept.append(best)
            decayed: list[Detection] = []
            for det in remaining:
                factor = self._decay(best.box.iou(det.box))
                new_conf = det.confidence * factor
                if new_conf >= self.score_threshold:
                    decayed.append(det.with_confidence(new_conf))
            remaining = decayed
        return kept
