"""Tracking-quality metrics against ground-truth identities.

The simulation substrate knows each object's true identity, so tracker
output can be scored directly: per frame, tracks are matched to
ground-truth objects by IoU, and the usual identity statistics follow —
coverage (how many GT object-frames a confirmed track explains), identity
switches (a GT object handed from one track id to another), and
fragmentation (mean number of distinct track ids per GT object).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.detection.matching import greedy_iou_assignment
from repro.simulation.video import Frame
from repro.tracking.tracker import TrackedObject

__all__ = ["TrackingQuality", "evaluate_tracking"]


@dataclass(frozen=True)
class TrackingQuality:
    """Aggregate tracking quality over a video.

    Attributes:
        coverage: Fraction of ground-truth object-frames matched by a
            confirmed track (a recall-like measure).
        precision: Fraction of track-frames matched to a ground-truth
            object.
        identity_switches: Times a GT object's matched track id changed
            between consecutive matched frames.
        fragmentation: Mean number of distinct track ids per GT object
            (1.0 is perfect).
        num_tracks: Distinct track ids emitted.
        num_objects: Distinct GT objects observed.

    Rates with an empty denominator (no GT object-frames, no confirmed
    track-frames) are 0.0, matching the convention of
    :attr:`repro.engine.store.CacheStats.hit_rate`.
    """

    coverage: float
    precision: float
    identity_switches: int
    fragmentation: float
    num_tracks: int
    num_objects: int


def evaluate_tracking(
    frames: Sequence[Frame],
    outputs: Sequence[Sequence[TrackedObject]],
    iou_threshold: float = 0.4,
) -> TrackingQuality:
    """Score tracker outputs against ground truth.

    Args:
        frames: The video frames (with ground truth).
        outputs: Per-frame tracker outputs, aligned with ``frames``.
        iou_threshold: Minimum IoU for a track-to-object match.

    Raises:
        ValueError: If the two sequences have different lengths.
    """
    if len(frames) != len(outputs):
        raise ValueError(
            f"{len(frames)} frames but {len(outputs)} tracker outputs"
        )

    gt_frames = 0
    matched_gt_frames = 0
    track_frames = 0
    matched_track_frames = 0
    last_track_of_object: dict[int, int] = {}
    tracks_of_object: dict[int, set[int]] = {}
    all_track_ids: set[int] = set()
    all_object_ids: set[int] = set()
    switches = 0

    for frame, tracks in zip(frames, outputs, strict=True):
        gt_frames += len(frame.objects)
        track_frames += len(tracks)
        all_track_ids.update(t.track_id for t in tracks)
        all_object_ids.update(o.object_id for o in frame.objects)
        if not frame.objects or not tracks:
            continue
        pairs = greedy_iou_assignment(
            [t.box for t in tracks],
            [o.box for o in frame.objects],
            iou_threshold,
        )
        for ti, oi, _ in pairs:
            matched_gt_frames += 1
            matched_track_frames += 1
            object_id = frame.objects[oi].object_id
            track_id = tracks[ti].track_id
            previous = last_track_of_object.get(object_id)
            if previous is not None and previous != track_id:
                switches += 1
            last_track_of_object[object_id] = track_id
            tracks_of_object.setdefault(object_id, set()).add(track_id)

    fragmentation = (
        sum(len(ids) for ids in tracks_of_object.values())
        / len(tracks_of_object)
        if tracks_of_object
        else 0.0
    )
    # Empty inputs follow the repo-wide 0.0 convention (the same one
    # CacheStats.hit_rate uses): a rate with a zero denominator is 0.0,
    # never 1.0 — an empty video has not been covered, and a tracker that
    # confirmed nothing has demonstrated no precision.
    return TrackingQuality(
        coverage=matched_gt_frames / gt_frames if gt_frames else 0.0,
        precision=(
            matched_track_frames / track_frames if track_frames else 0.0
        ),
        identity_switches=switches,
        fragmentation=fragmentation,
        num_tracks=len(all_track_ids),
        num_objects=len(all_object_ids),
    )
