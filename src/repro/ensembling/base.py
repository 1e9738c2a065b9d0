"""Common interface for box-fusion (model prediction ensembling) methods.

A fusion method takes the per-detector outputs for one frame and produces a
single combined :class:`~repro.detection.types.FrameDetections`.  Methods
hold only their constructor parameters: constructing one is cheap, and a
single instance can be shared across frames and threads.

Fusion operates per class label throughout — boxes of different classes never
suppress or merge with each other, matching every method's published
formulation.  NMS, Soft-NMS, Softer-NMS, NMW and Fusion each have one
per-class kernel, :meth:`EnsembleMethod._fuse_class`, written over plain
``Detection`` objects: the paper workload's class pools hold a few boxes
each, too few for array set-up to pay (``docs/PERFORMANCE.md``, "Fusion:
one kernel per method").  WBF, the paper's method, has one kernel that
fuses an ensemble from a :class:`FusionScope`: a caller that fuses several
ensembles of one frame shares the pooling, overlap tests, cluster averages
and fused detections between them (``docs/PERFORMANCE.md``, "Fusion: share
a frame's work across its ensembles").  The other methods ignore the scope.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from typing import Any

from repro.detection.types import Detection, FrameDetections

__all__ = ["EnsembleMethod", "FusionScope", "cluster_by_iou", "greedy_clusters"]


class FusionScope:
    """One frame's member outputs, and the fusion work its ensembles share.

    A caller that fuses several ensembles of one frame builds one scope
    from the frame's member outputs, in the order every ensemble lists
    its members, and passes it to each :meth:`EnsembleMethod.fuse` call;
    each call's ``per_detector`` is then a subsequence of :attr:`parts`,
    by identity.  A method may keep in the scope what the frame's
    ensembles would otherwise each recompute (WBF keeps its ordered class
    pools, overlap tests, cluster averages and fused detections), so a
    scope should live no longer than the frame's evaluation.

    Args:
        parts: The frame's member outputs.
    """

    __slots__ = ("parts", "_work")

    def __init__(self, parts: Sequence[FrameDetections]) -> None:
        self.parts: tuple[FrameDetections, ...] = tuple(parts)
        self._work: dict[EnsembleMethod, Any] = {}

    def members(self, per_detector: Sequence[FrameDetections]) -> int:
        """Bit mask of ``per_detector``'s positions in :attr:`parts`.

        Raises:
            ValueError: When ``per_detector`` is not a subsequence of
                :attr:`parts` (by identity, in order).
        """
        parts = self.parts
        mask = 0
        position = 0
        for part in per_detector:
            while position < len(parts) and parts[position] is not part:
                position += 1
            if position == len(parts):
                raise ValueError(
                    "fuse() outputs must be a subsequence of the scope's parts"
                )
            mask |= 1 << position
            position += 1
        return mask

    def work(
        self,
        method: EnsembleMethod,
        build: Callable[[Any, tuple[FrameDetections, ...]], Any],
    ) -> Any:
        """``method``'s shared work on this frame, ``build(method, parts)``.

        Built at the method's first call with this scope, then reused.
        """
        work = self._work.get(method)
        if work is None:
            work = build(method, self.parts)
            self._work[method] = work
        return work


class EnsembleMethod:
    """Base class for box-fusion methods.

    Subclasses implement :meth:`_fuse_class` over a single-class pool of
    detections; the base class handles pooling across detectors, splitting
    by class and re-assembling the frame output.  A subclass that fuses
    from a :class:`FusionScope` (WBF) overrides :meth:`_fuse` instead.
    """

    #: Short registry name; subclasses override.
    name: str = "abstract"

    def __call__(
        self, per_detector: Sequence[FrameDetections]
    ) -> FrameDetections:
        return self.fuse(per_detector)

    def fuse(
        self,
        per_detector: Sequence[FrameDetections],
        scope: FusionScope | None = None,
    ) -> FrameDetections:
        """Fuse the outputs of several detectors on one frame.

        Args:
            per_detector: One :class:`FrameDetections` per detector, all with
                the same ``frame_index``.  A single-element sequence is valid
                and (for every method implemented here) passes detections
                through with at most NMS-style dedup of that one model.
            scope: The frame's :class:`FusionScope`, shared by every
                ensemble of the frame a caller fuses; ``per_detector`` must
                be a subsequence of its parts.  ``None`` (the default)
                gives the call a scope of its own.  The result is the
                same either way.

        Returns:
            The fused detections with ``source`` set to this method's name,
            in decreasing confidence order.
        """
        if not per_detector:
            raise ValueError("fuse() requires at least one detector output")
        ordered = tuple(
            sorted(
                self._fuse(per_detector, scope),
                key=lambda d: d.confidence,
                reverse=True,
            )
        )
        return FrameDetections(per_detector[0].frame_index, ordered, source=self.name)

    def _fuse(
        self, per_detector: Sequence[FrameDetections], scope: FusionScope | None
    ) -> list[Detection]:
        """The fused detections, label by label in sorted label order.

        Pools the outputs and runs :meth:`_fuse_class` on each label's
        pool; ``scope`` is ignored.
        """
        frame_index = per_detector[0].frame_index
        pooled = FrameDetections.pool(frame_index, per_detector)
        num_models = len(per_detector)
        fused: list[Detection] = []
        pools = pooled.by_label()
        for label in sorted(pools):
            fused.extend(self._fuse_class(pools[label], num_models))
        return fused

    def _fuse_class(
        self, detections: Sequence[Detection], num_models: int
    ) -> list[Detection]:
        """Fuse a pool of same-class detections from ``num_models`` models.

        ``detections`` is in pool order: detector by detector, each
        detector's boxes in its output order.  Every method that keeps
        the default :meth:`_fuse` implements it.
        """
        raise NotImplementedError(f"{type(self).__name__} has no per-class kernel")

    def __repr__(self) -> str:
        params = ", ".join(
            f"{k}={v!r}"
            for k, v in sorted(vars(self).items())
            if not k.startswith("_")
        )
        return f"{type(self).__name__}({params})"


def greedy_clusters(
    order: Iterable[int], overlaps: Callable[[int, int], bool]
) -> list[list[int]]:
    """Greedy clustering, the one routine behind WBF, NMW and Fusion.

    Indices are visited in ``order``; each joins the first existing
    cluster whose representative (the cluster's first member) overlaps
    it, ``overlaps(representative, index)``, otherwise it seeds a new
    cluster.

    Returns:
        Clusters as lists of indices, each in visit order.
    """
    clusters: list[list[int]] = []
    for idx in order:
        for cluster in clusters:
            if overlaps(cluster[0], idx):
                cluster.append(idx)
                break
        else:
            clusters.append([idx])
    return clusters


def cluster_by_iou(
    detections: Sequence[Detection], iou_threshold: float
) -> list[list[int]]:
    """Greedy confidence-ordered clustering used by NMW / Fusion.

    Detections are visited in decreasing confidence order; each joins the
    first existing cluster whose representative (the cluster's first, i.e.
    highest-confidence, member) overlaps it with IoU at least the
    threshold, otherwise it seeds a new cluster (:func:`greedy_clusters`).

    Tie-breaking is pinned: the visit order is a *stable* sort by
    ``(-confidence, index)``, so equal-confidence detections are visited
    in their pool order (``tests/test_ensemble_base.py`` pins it with an
    all-equal-confidence pool).  WBF visits its scope's pools in the same
    order.

    Returns:
        Clusters as lists of indices into ``detections``, each ordered by
        decreasing confidence.
    """
    order = sorted(
        range(len(detections)),
        key=lambda i: detections[i].confidence,
        reverse=True,
    )
    return greedy_clusters(
        order,
        lambda rep, i: detections[rep].box.iou(detections[i].box) >= iou_threshold,
    )
