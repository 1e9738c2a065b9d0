"""Consensus fusion of an ensemble of detectors (Wei et al., 2018).

The "Fusion" method in the paper's comparison pools boxes across models,
clusters them, and boosts clusters confirmed by multiple models while
optionally dropping clusters seen by too few.  Our implementation averages
cluster boxes uniformly and sets the fused confidence to

    ``1 - prod_i (1 - conf_i)``

over distinct contributing models — the probability that at least one model
is right under an independence assumption — optionally gated by a minimum
number of agreeing models.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.detection.boxes import average_boxes
from repro.detection.types import Detection
from repro.ensembling.base import EnsembleMethod, cluster_by_iou

__all__ = ["ConsensusFusion"]


class ConsensusFusion(EnsembleMethod):
    """Agreement-boosting fusion.

    Args:
        iou_threshold: Cluster membership threshold.
        min_votes: Minimum number of distinct models that must contribute a
            box for the cluster to survive.  ``1`` (default) keeps
            single-model discoveries; ``2`` turns the method into a strict
            consensus filter.
    """

    name = "fusion"

    def __init__(self, iou_threshold: float = 0.5, min_votes: int = 1) -> None:
        if not 0.0 <= iou_threshold <= 1.0:
            raise ValueError("iou_threshold must be in [0, 1]")
        if min_votes < 1:
            raise ValueError("min_votes must be at least 1")
        self.iou_threshold = iou_threshold
        self.min_votes = min_votes

    def _fuse_class(
        self, detections: Sequence[Detection], num_models: int
    ) -> list[Detection]:
        pool = list(detections)
        if not pool:
            return []
        clusters = cluster_by_iou(pool, self.iou_threshold)

        fused: list[Detection] = []
        for cluster in clusters:
            members = [pool[i] for i in cluster]
            # One vote per distinct model: the model's most confident member.
            best_by_source = {}
            for m in members:
                current = best_by_source.get(m.source)
                if current is None or m.confidence > current.confidence:
                    best_by_source[m.source] = m
            votes = list(best_by_source.values())
            if len(votes) < min(self.min_votes, num_models):
                continue
            miss_prob = 1.0
            for v in votes:
                miss_prob *= 1.0 - v.confidence
            conf = min(max(1.0 - miss_prob, 0.0), 1.0)
            box = average_boxes([m.box for m in members])
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
