"""A SORT-style IoU tracker with constant-velocity prediction.

Tracks are matched to incoming detections by IoU against their *predicted*
position (last box translated by the track's estimated velocity).  New
tracks start tentative and are confirmed after a few consecutive hits;
unmatched tracks coast on their prediction and are dropped after a few
consecutive misses.  This is the standard lightweight online tracker
(Bewley et al.'s SORT without the Kalman filter's covariance machinery,
which IoU gating makes unnecessary at simulation fidelity).
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass

from repro.detection.boxes import BBox
from repro.detection.matching import greedy_iou_assignment
from repro.detection.types import Detection, FrameDetections

__all__ = ["TrackState", "TrackedObject", "IoUTracker"]


class TrackState(enum.Enum):
    """Lifecycle state of a track."""

    TENTATIVE = "tentative"
    CONFIRMED = "confirmed"
    LOST = "lost"


@dataclass(frozen=True)
class TrackedObject:
    """One track's output for one frame.

    Attributes:
        track_id: Tracker-assigned stable identity.
        box: Current (matched or predicted) box.
        label: Majority class label of the track.
        confidence: Confidence of the latest matched detection.
        state: Lifecycle state.
        hits: Total matched detections so far.
        age: Frames since the track was created.
        coasting: True when this frame's box is a prediction (no match).
    """

    track_id: int
    box: BBox
    label: str
    confidence: float
    state: TrackState
    hits: int
    age: int
    coasting: bool


@dataclass
class _Track:
    track_id: int
    box: BBox
    label_votes: dict[str, int]
    confidence: float
    velocity: tuple[float, float]
    hits: int = 1
    age: int = 1
    consecutive_misses: int = 0
    confirmed: bool = False

    @property
    def label(self) -> str:
        return max(self.label_votes.items(), key=lambda kv: (kv[1], kv[0]))[0]

    def predict(self) -> BBox:
        return self.box.translate(*self.velocity)

    def update(self, detection: Detection, smoothing: float) -> None:
        old_cx, old_cy = self.box.center
        new_cx, new_cy = detection.box.center
        raw_v = (new_cx - old_cx, new_cy - old_cy)
        self.velocity = (
            smoothing * self.velocity[0] + (1 - smoothing) * raw_v[0],
            smoothing * self.velocity[1] + (1 - smoothing) * raw_v[1],
        )
        self.box = detection.box
        self.confidence = detection.confidence
        self.label_votes[detection.label] = (
            self.label_votes.get(detection.label, 0) + 1
        )
        self.hits += 1
        self.consecutive_misses = 0


class IoUTracker:
    """Online multi-object tracker over per-frame detections.

    Args:
        iou_threshold: Minimum IoU between a track's predicted box and a
            detection for association.
        max_age: Consecutive misses before a track is dropped.
        min_hits: Matched frames before a track is confirmed (suppresses
            tracks seeded by one-off false positives).
        min_confidence: Detections below this confidence are ignored.
        velocity_smoothing: Exponential smoothing factor of the velocity
            estimate in ``[0, 1)``; higher means steadier prediction.
    """

    def __init__(
        self,
        iou_threshold: float = 0.3,
        max_age: int = 3,
        min_hits: int = 2,
        min_confidence: float = 0.1,
        velocity_smoothing: float = 0.6,
    ) -> None:
        if not 0.0 < iou_threshold <= 1.0:
            raise ValueError("iou_threshold must be in (0, 1]")
        if max_age < 1:
            raise ValueError("max_age must be at least 1")
        if min_hits < 1:
            raise ValueError("min_hits must be at least 1")
        if not 0.0 <= min_confidence <= 1.0:
            raise ValueError("min_confidence must be in [0, 1]")
        if not 0.0 <= velocity_smoothing < 1.0:
            raise ValueError("velocity_smoothing must be in [0, 1)")
        self.iou_threshold = iou_threshold
        self.max_age = max_age
        self.min_hits = min_hits
        self.min_confidence = min_confidence
        self.velocity_smoothing = velocity_smoothing
        self._tracks: list[_Track] = []
        self._next_id = 1

    @property
    def active_tracks(self) -> int:
        return len(self._tracks)

    def reset(self) -> None:
        """Forget all tracks (e.g. at a video boundary)."""
        self._tracks = []
        self._next_id = 1

    def update(
        self, detections: FrameDetections | Sequence[Detection]
    ) -> list[TrackedObject]:
        """Consume one frame's detections and emit current track states.

        Returns:
            Confirmed tracks (matched or coasting) plus nothing for
            tentative/dead tracks, ordered by track id.
        """
        dets = [
            d for d in detections if d.confidence >= self.min_confidence
        ]
        for track in self._tracks:
            track.age += 1

        # Associate predictions to detections greedily by IoU, class-aware:
        # a track takes a detection of its label or of one it has seen.
        matched: dict[int, Detection] = {}
        if dets and self._tracks:
            tracks = self._tracks
            pairs = greedy_iou_assignment(
                [t.predict() for t in tracks],
                [d.box for d in dets],
                self.iou_threshold,
                allowed=lambda ti, di: bool(
                    tracks[ti].label == dets[di].label
                    or tracks[ti].label_votes.get(dets[di].label)
                ),
            )
            matched = {ti: dets[di] for ti, di, _ in pairs}

        # Update matched tracks; age unmatched ones.
        for ti, track in enumerate(self._tracks):
            detection = matched.get(ti)
            if detection is not None:
                track.update(detection, self.velocity_smoothing)
                if track.hits >= self.min_hits:
                    track.confirmed = True
            else:
                track.consecutive_misses += 1
                # Coast on the prediction so re-association stays possible.
                track.box = track.predict()

        # Spawn tracks for unmatched detections.
        matched_det_ids = {id(d) for d in matched.values()}
        for detection in dets:
            if id(detection) in matched_det_ids:
                continue
            track = _Track(
                track_id=self._next_id,
                box=detection.box,
                label_votes={detection.label: 1},
                confidence=detection.confidence,
                velocity=(0.0, 0.0),
            )
            track.confirmed = track.hits >= self.min_hits
            self._tracks.append(track)
            self._next_id += 1

        # Retire stale tracks.
        self._tracks = [
            t for t in self._tracks if t.consecutive_misses <= self.max_age
        ]

        outputs: list[TrackedObject] = []
        for ti, track in enumerate(self._tracks):
            if not track.confirmed:
                continue
            outputs.append(
                TrackedObject(
                    track_id=track.track_id,
                    box=track.box,
                    label=track.label,
                    confidence=track.confidence,
                    state=TrackState.CONFIRMED,
                    hits=track.hits,
                    age=track.age,
                    coasting=ti not in matched,
                )
            )
        return sorted(outputs, key=lambda t: t.track_id)
