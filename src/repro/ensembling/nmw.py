"""Non-Maximum Weighted (NMW) fusion.

Zhou et al. (2017): like WBF, overlapping boxes are merged rather than
suppressed, but each member's averaging weight is its confidence multiplied
by its IoU with the cluster's best box, and the fused confidence is the
cluster maximum (no model-count rescaling).  NMW therefore tracks the most
confident model more closely than WBF does.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.detection.boxes import average_boxes
from repro.detection.types import Detection
from repro.ensembling.base import EnsembleMethod, cluster_by_iou

__all__ = ["NonMaximumWeighted"]


class NonMaximumWeighted(EnsembleMethod):
    """NMW over same-class detection pools.

    Args:
        iou_threshold: Cluster membership threshold.
        confidence_threshold: Pool entries below this confidence are ignored.
    """

    name = "nmw"

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
        pool = [
            d for d in detections if d.confidence >= self.confidence_threshold
        ]
        if not pool:
            return []
        clusters = cluster_by_iou(pool, self.iou_threshold)

        fused: list[Detection] = []
        for cluster in clusters:
            members = [pool[i] for i in cluster]
            best = members[0]  # clusters are confidence-ordered
            weights = [
                m.confidence * max(best.box.iou(m.box), 1e-6) for m in members
            ]
            box = average_boxes([m.box for m in members], weights)
            fused.append(
                Detection(
                    box=box,
                    confidence=best.confidence,
                    label=best.label,
                    source=best.source,
                    object_id=best.object_id,
                )
            )
        return fused
