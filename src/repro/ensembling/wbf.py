"""Weighted Boxes Fusion (WBF), the method adopted by the paper.

Solovyev et al. (2021): rather than suppressing overlapping boxes, WBF
clusters them and emits, per cluster, a confidence-weighted average box.
The fused confidence is the cluster's mean confidence, rescaled by how many
distinct models contributed relative to the ensemble size, so that objects
confirmed by more models score higher — the property that lets WBF ensembles
beat every constituent model, which drives all of the paper's accuracy
curves.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.detection.boxes import average_boxes
from repro.detection.types import Detection
from repro.ensembling.base import EnsembleMethod, cluster_by_iou

__all__ = ["WeightedBoxesFusion"]


class WeightedBoxesFusion(EnsembleMethod):
    """WBF over same-class detection pools.

    Args:
        iou_threshold: Boxes join an existing cluster when their IoU with
            the cluster representative is at least this value.
        confidence_threshold: Pool entries below this confidence are ignored.
        conf_type: ``"avg"`` (paper default) or ``"max"`` — how the cluster
            confidence is aggregated before model-count rescaling.
    """

    name = "wbf"

    def __init__(
        self,
        iou_threshold: float = 0.55,
        confidence_threshold: float = 0.0,
        conf_type: str = "avg",
    ) -> None:
        if not 0.0 <= iou_threshold <= 1.0:
            raise ValueError("iou_threshold must be in [0, 1]")
        if not 0.0 <= confidence_threshold <= 1.0:
            raise ValueError("confidence_threshold must be in [0, 1]")
        if conf_type not in ("avg", "max"):
            raise ValueError(f"unknown conf_type {conf_type!r}")
        self.iou_threshold = iou_threshold
        self.confidence_threshold = confidence_threshold
        self.conf_type = conf_type

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
            confidences = [m.confidence for m in members]
            box = average_boxes([m.box for m in members], confidences)
            if self.conf_type == "avg":
                conf = sum(confidences) / len(confidences)
            else:
                conf = max(confidences)
            # Rescale by the number of distinct contributing models: a box
            # found by every model keeps its confidence, one found by a
            # single model out of many is discounted.
            sources = {m.source for m in members}
            model_count = min(len(sources), num_models)
            conf = conf * model_count / max(num_models, 1)
            conf = min(max(conf, 0.0), 1.0)
            representative = members[0]
            fused.append(
                Detection(
                    box=box,
                    confidence=conf,
                    label=representative.label,
                    source=representative.source,
                    object_id=representative.object_id,
                )
            )
        return fused
