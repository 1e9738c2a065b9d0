"""Common interface for box-fusion (model prediction ensembling) methods.

A fusion method takes the per-detector outputs for one frame and produces a
single combined :class:`~repro.detection.types.FrameDetections`.  Methods are
stateless value objects: constructing one is cheap and calling it has no side
effects, so a single instance can be shared across frames and threads.

Fusion operates per class label throughout — boxes of different classes never
suppress or merge with each other, matching every method's published
formulation.  Each method has exactly one per-class kernel,
:meth:`EnsembleMethod._fuse_class`, written over plain ``Detection``
objects: the paper workload's class pools hold a few boxes each, too few
for array set-up to pay (``docs/PERFORMANCE.md``, "Fusion: one kernel per
method").
"""

from __future__ import annotations

import abc
from collections.abc import Sequence

from repro.detection.types import Detection, FrameDetections

__all__ = ["EnsembleMethod", "cluster_by_iou"]


class EnsembleMethod(abc.ABC):
    """Abstract base class for box-fusion methods.

    Subclasses implement :meth:`_fuse_class` over a single-class pool of
    detections; the base class handles pooling across detectors, splitting
    by class and re-assembling the frame output.
    """

    #: Short registry name; subclasses override.
    name: str = "abstract"

    def __call__(
        self, per_detector: Sequence[FrameDetections]
    ) -> FrameDetections:
        return self.fuse(per_detector)

    def fuse(self, per_detector: Sequence[FrameDetections]) -> FrameDetections:
        """Fuse the outputs of several detectors on one frame.

        Args:
            per_detector: One :class:`FrameDetections` per detector, all with
                the same ``frame_index``.  A single-element sequence is valid
                and (for every method implemented here) passes detections
                through with at most NMS-style dedup of that one model.

        Returns:
            The fused detections with ``source`` set to this method's name.
        """
        if not per_detector:
            raise ValueError("fuse() requires at least one detector output")
        frame_index = per_detector[0].frame_index
        pooled = FrameDetections.pool(frame_index, per_detector)
        num_models = len(per_detector)

        fused: list[Detection] = []
        pools = pooled.by_label()
        for label in sorted(pools):
            fused.extend(self._fuse_class(pools[label], num_models))
        ordered = tuple(
            sorted(fused, key=lambda d: d.confidence, reverse=True)
        )
        return FrameDetections(frame_index, ordered, source=self.name)

    @abc.abstractmethod
    def _fuse_class(
        self, detections: Sequence[Detection], num_models: int
    ) -> list[Detection]:
        """Fuse a pool of same-class detections from ``num_models`` models.

        ``detections`` is in pool order: detector by detector, each
        detector's boxes in its output order.
        """

    def __repr__(self) -> str:
        params = ", ".join(
            f"{k}={v!r}"
            for k, v in sorted(vars(self).items())
            if not k.startswith("_")
        )
        return f"{type(self).__name__}({params})"


def cluster_by_iou(
    detections: Sequence[Detection], iou_threshold: float
) -> list[list[int]]:
    """Greedy confidence-ordered clustering used by WBF / NMW / Fusion.

    Detections are visited in decreasing confidence order; each joins the
    first existing cluster whose representative (the cluster's first, i.e.
    highest-confidence, member) overlaps it with IoU above the threshold,
    otherwise it seeds a new cluster.

    Tie-breaking is pinned: the visit order is a *stable* sort by
    ``(-confidence, index)``, so equal-confidence detections are visited
    in their pool order (``tests/test_ensemble_base.py`` pins it with an
    all-equal-confidence pool).

    Returns:
        Clusters as lists of indices into ``detections``, each ordered by
        decreasing confidence.
    """
    order = sorted(
        range(len(detections)),
        key=lambda i: detections[i].confidence,
        reverse=True,
    )
    clusters: list[list[int]] = []
    for idx in order:
        box = detections[idx].box
        placed = False
        for cluster in clusters:
            rep = detections[cluster[0]].box
            if rep.iou(box) >= iou_threshold:
                cluster.append(idx)
                placed = True
                break
        if not placed:
            clusters.append([idx])
    return clusters
