"""Detection value types: the paper's ``<BBox, Conf, Label>`` triplets.

A :class:`Detection` is a single predicted object instance; a
:class:`FrameDetections` is the full output of applying one detector (or one
ensemble) to one frame, i.e. the paper's ``D_{M_i | v}`` / ``D_{S | v}``.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from repro.detection.boxes import BBox

__all__ = ["Detection", "FrameDetections"]


@dataclass(frozen=True)
class Detection:
    """A single detected object instance.

    Attributes:
        box: The predicted bounding box.
        confidence: Detector confidence in ``[0, 1]``.
        label: Predicted object class (e.g. ``"car"``).
        source: Optional name of the detector that produced this detection;
            fusion methods use it to weight contributions and tests use it
            for provenance assertions.
        object_id: Optional ground-truth object identity; only populated by
            the simulation substrate (real detectors do not know identities).
            Metrics never read it.
    """

    box: BBox
    confidence: float
    label: str
    source: str | None = None
    object_id: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(
                f"confidence must be in [0, 1], got {self.confidence!r}"
            )
        if not self.label:
            raise ValueError("label must be a non-empty string")

    def with_confidence(self, confidence: float) -> Detection:
        """Copy of this detection with a replaced confidence."""
        return Detection(
            box=self.box,
            confidence=confidence,
            label=self.label,
            source=self.source,
            object_id=self.object_id,
        )


@dataclass(frozen=True)
class FrameDetections:
    """All detections produced for one frame by one detector or ensemble.

    Instances are immutable.

    Attributes:
        frame_index: Index of the frame within its video.
        detections: The detection triplets, in no particular order.
        source: Name of the producing detector or ensemble (optional).
    """

    frame_index: int
    detections: tuple[Detection, ...] = ()
    source: str | None = None

    def __post_init__(self) -> None:
        if self.frame_index < 0:
            raise ValueError("frame_index must be non-negative")
        if not isinstance(self.detections, tuple):
            object.__setattr__(self, "detections", tuple(self.detections))

    def __len__(self) -> int:
        return len(self.detections)

    def __iter__(self) -> Iterator[Detection]:
        return iter(self.detections)

    def __bool__(self) -> bool:
        return bool(self.detections)

    def by_label(self) -> dict[str, list[Detection]]:
        """Group detections by class label."""
        groups: dict[str, list[Detection]] = {}
        for det in self.detections:
            groups.setdefault(det.label, []).append(det)
        return groups

    @staticmethod
    def pool(
        frame_index: int, parts: Iterable["FrameDetections"]
    ) -> FrameDetections:
        """Pool any number of per-detector outputs for a frame."""
        pooled: list[Detection] = []
        for part in parts:
            if part.frame_index != frame_index:
                raise ValueError(
                    f"frame index mismatch: expected {frame_index}, "
                    f"got {part.frame_index}"
                )
            pooled.extend(part.detections)
        return FrameDetections(frame_index, tuple(pooled), None)
