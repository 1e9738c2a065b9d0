"""Softer-NMS: variance-weighted coordinate refinement of kept boxes.

He et al. (2018) keep the NMS survivors but refine each survivor's
coordinates as a weighted average over all boxes that overlap it strongly,
with weights combining detection confidence and a gaussian of the overlap
(standing in for the learned localization variance, which a black-box
detector does not expose).  The effect is that several detectors voting for
slightly different boxes produce one better-localized box.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from repro.detection.boxes import average_boxes
from repro.detection.types import Detection
from repro.ensembling.base import EnsembleMethod

__all__ = ["SofterNMS"]


class SofterNMS(EnsembleMethod):
    """NMS with variance-voting coordinate refinement.

    Args:
        iou_threshold: Suppression threshold (as in hard NMS).
        vote_iou_threshold: Boxes overlapping a survivor above this take
            part in its coordinate vote.
        sigma: Bandwidth of the gaussian vote weight
            ``exp(-(1 - iou)^2 / sigma)``.
    """

    name = "softer_nms"

    def __init__(
        self,
        iou_threshold: float = 0.5,
        vote_iou_threshold: float = 0.5,
        sigma: float = 0.025,
    ) -> None:
        if not 0.0 <= iou_threshold <= 1.0:
            raise ValueError("iou_threshold must be in [0, 1]")
        if not 0.0 <= vote_iou_threshold <= 1.0:
            raise ValueError("vote_iou_threshold must be in [0, 1]")
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        self.iou_threshold = iou_threshold
        self.vote_iou_threshold = vote_iou_threshold
        self.sigma = sigma

    def _fuse_class(
        self, detections: Sequence[Detection], num_models: int
    ) -> list[Detection]:
        order = sorted(detections, key=lambda d: d.confidence, reverse=True)
        survivors: list[Detection] = []
        for det in order:
            if any(det.box.iou(s.box) > self.iou_threshold for s in survivors):
                continue
            survivors.append(det)

        refined: list[Detection] = []
        for survivor in survivors:
            voters: list[Detection] = []
            weights: list[float] = []
            for det in detections:
                overlap = survivor.box.iou(det.box)
                if overlap >= self.vote_iou_threshold:
                    vote = det.confidence * math.exp(
                        -((1.0 - overlap) ** 2) / self.sigma
                    )
                    voters.append(det)
                    weights.append(vote)
            if voters:
                box = average_boxes([v.box for v in voters], weights)
            else:
                box = survivor.box
            refined.append(
                Detection(
                    box=box,
                    confidence=survivor.confidence,
                    label=survivor.label,
                    source=survivor.source,
                    object_id=survivor.object_id,
                )
            )
        return refined
