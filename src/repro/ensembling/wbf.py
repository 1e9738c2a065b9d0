"""Weighted Boxes Fusion (WBF), the method adopted by the paper.

Solovyev et al. (2021): rather than suppressing overlapping boxes, WBF
clusters them and emits, per cluster, a confidence-weighted average box.
The fused confidence is the cluster's mean confidence, rescaled by how many
distinct models contributed relative to the ensemble size, so that objects
confirmed by more models score higher — the property that lets WBF ensembles
beat every constituent model, which drives all of the paper's accuracy
curves.

One kernel fuses every ensemble of a frame from the frame's
:class:`~repro.ensembling.base.FusionScope`.  The scope holds the union of
the members' boxes once, split by label and ordered by (-confidence, pool
position).  An ensemble's class pool is that order filtered by membership:
its members are a subsequence of the scope's parts, so the filtered order is
exactly the stable confidence order of its own pool.  Each pair's overlap
test, each cluster's averaged box, aggregate confidence and distinct-source
count, and each (cluster, ensemble size) fused detection is computed once
per scope and shared by every ensemble that needs it; within a scope,
value-equal fused boxes and detections are one object.  A plain
``fuse(parts)`` runs the same kernel with a scope of its own.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.detection.boxes import BBox, average_boxes
from repro.detection.types import Detection, FrameDetections
from repro.ensembling.base import EnsembleMethod, FusionScope, greedy_clusters

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

    def _fuse(
        self, per_detector: Sequence[FrameDetections], scope: FusionScope | None
    ) -> list[Detection]:
        if scope is None:
            scope = FusionScope(per_detector)
        mask = scope.members(per_detector)
        num_models = len(per_detector)
        pools: _Pools = scope.work(self, _Pools)
        bits = pools.bits
        fused: list[Detection] = []
        for order in pools.labels:
            members = [p for p in order if bits[p] & mask]
            if members:
                for cluster in greedy_clusters(members, pools.overlaps):
                    fused.append(pools.fused(tuple(cluster), num_models))
        return fused


class _Pools:
    """A scope's union pool, and what WBF derives from it.

    ``labels`` holds, per label in sorted order, the pool positions of
    that label's boxes in visit order, (-confidence, pool position);
    ``bits[p]`` is position ``p``'s part as a bit of the scope's member
    mask.  The overlap tests, and per cluster (a tuple of pool
    positions) its averaged box, aggregate confidence, distinct-source
    count and fused detection per ensemble size, are stored at first
    use.  Fused boxes and detections are interned by their fields, so
    value-equal ones are one object.
    """

    __slots__ = (
        "pooled",
        "bits",
        "labels",
        "_iou_threshold",
        "_average_confidence",
        "_tests",
        "_clusters",
        "_boxes",
        "_detections",
    )

    def __init__(
        self, method: WeightedBoxesFusion, parts: tuple[FrameDetections, ...]
    ) -> None:
        pooled = FrameDetections.pool(parts[0].frame_index, parts).detections
        by_label: dict[str, list[int]] = {}
        for position, det in enumerate(pooled):
            if det.confidence >= method.confidence_threshold:
                by_label.setdefault(det.label, []).append(position)
        self.pooled = pooled
        self.bits = [1 << k for k, part in enumerate(parts) for _ in part.detections]
        # A stable sort: equal confidences keep their pool order.
        self.labels = [
            sorted(by_label[label], key=lambda p: pooled[p].confidence, reverse=True)
            for label in sorted(by_label)
        ]
        self._iou_threshold = method.iou_threshold
        self._average_confidence = method.conf_type == "avg"
        self._tests: dict[int, bool] = {}
        self._clusters: dict[
            tuple[int, ...], tuple[BBox, float, int, dict[int, Detection]]
        ] = {}
        self._boxes: dict[tuple[float, ...], BBox] = {}
        self._detections: dict[tuple[object, ...], Detection] = {}

    def overlaps(self, rep: int, p: int) -> bool:
        """Whether position ``p`` joins a cluster represented by ``rep``."""
        pooled = self.pooled
        pair = rep * len(pooled) + p
        test = self._tests.get(pair)
        if test is None:
            test = pooled[rep].box.iou(pooled[p].box) >= self._iou_threshold
            self._tests[pair] = test
        return test

    def fused(self, cluster: tuple[int, ...], num_models: int) -> Detection:
        """The fused detection of ``cluster`` in an ensemble of ``num_models``."""
        summary = self._clusters.get(cluster)
        if summary is None:
            members = [self.pooled[p] for p in cluster]
            confidences = [m.confidence for m in members]
            box = average_boxes([m.box for m in members], confidences)
            box = self._boxes.setdefault((box.x1, box.y1, box.x2, box.y2), box)
            if self._average_confidence:
                conf = sum(confidences) / len(confidences)
            else:
                conf = max(confidences)
            summary = (box, conf, len({m.source for m in members}), {})
            self._clusters[cluster] = summary
        box, conf, sources, by_size = summary
        fused = by_size.get(num_models)
        if fused is None:
            # Rescale by the number of distinct contributing models: a box
            # found by every model keeps its confidence, one found by a
            # single model out of many is discounted.
            model_count = min(sources, num_models)
            conf = conf * model_count / max(num_models, 1)
            conf = min(max(conf, 0.0), 1.0)
            rep = self.pooled[cluster[0]]
            # Boxes are interned, so a box's identity stands for its value.
            fused = self._detections.setdefault(
                (id(box), conf, rep.label, rep.source, rep.object_id),
                Detection(
                    box=box,
                    confidence=conf,
                    label=rep.label,
                    source=rep.source,
                    object_id=rep.object_id,
                ),
            )
            by_size[num_models] = fused
        return fused
