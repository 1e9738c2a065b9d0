"""Ground-truth world generation: scenes with moving object tracks.

The generator produces videos whose frames contain objects with coherent
trajectories: each object spawns at a random position/depth, moves with a
per-track velocity, and leaves the frame after a while.  Object density,
class mix and visibility depend on the scene category, so detectors trained
on different domains (see :mod:`repro.simulation.profiles`) genuinely face
different difficulty per category — the mechanism behind all of the paper's
per-dataset ranking differences.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.detection.boxes import BBox
from repro.simulation.scenes import SceneCategory, get_category
from repro.simulation.video import (
    FRAME_HEIGHT,
    FRAME_WIDTH,
    Frame,
    GroundTruthObject,
    Video,
)
from repro.utils.rng import derive_rng
from repro.utils.validation import check_positive

__all__ = ["ObjectClassSpec", "generate_video", "OBJECT_CLASSES"]


@dataclass(frozen=True)
class ObjectClassSpec:
    """Geometry and abundance of one object class.

    Attributes:
        label: Class name.
        base_width / base_height: Apparent size in pixels at 10 m distance.
        relative_frequency: Sampling weight within the class mix.
        speed: Typical track speed in pixels per frame at 10 m.
    """

    label: str
    base_width: float
    base_height: float
    relative_frequency: float
    speed: float

    def __post_init__(self) -> None:
        check_positive(self.base_width, "base_width")
        check_positive(self.base_height, "base_height")
        check_positive(self.relative_frequency, "relative_frequency")
        check_positive(self.speed, "speed")


#: Driving-scene class mix loosely modeled on nuScenes/BDD label statistics.
OBJECT_CLASSES: tuple[ObjectClassSpec, ...] = (
    ObjectClassSpec("car", 420.0, 260.0, 10.0, 16.0),
    ObjectClassSpec("truck", 520.0, 340.0, 2.5, 12.0),
    ObjectClassSpec("bus", 560.0, 380.0, 1.0, 10.0),
    ObjectClassSpec("pedestrian", 110.0, 280.0, 4.0, 5.0),
    ObjectClassSpec("bicycle", 170.0, 210.0, 1.5, 8.0),
    ObjectClassSpec("motorcycle", 200.0, 220.0, 1.0, 14.0),
    ObjectClassSpec("traffic_cone", 70.0, 120.0, 2.0, 0.5),
)


#: Mean number of simultaneously visible objects in a clear scene (scaled
#: by the category's density multiplier).
MEAN_OBJECTS = 6.0

#: Mean number of frames an object stays visible.
MEAN_TRACK_LENGTH = 40.0

#: Depth range of the objects, in meters.
MIN_DISTANCE = 5.0
MAX_DISTANCE = 60.0

#: Probability that an object is partially occluded, reducing its
#: visibility.
OCCLUSION_RATE = 0.25


@dataclass
class _Track:
    """Mutable state of one live object track during generation."""

    object_id: int
    spec: ObjectClassSpec
    cx: float
    cy: float
    vx: float
    vy: float
    distance: float
    remaining: int
    occlusion: float

    def apparent_size(self) -> tuple[float, float]:
        """Apparent (width, height) given the track's current distance."""
        scale = 10.0 / self.distance
        return self.spec.base_width * scale, self.spec.base_height * scale

    def step(self) -> None:
        self.cx += self.vx
        self.cy += self.vy
        self.remaining -= 1


def _spawn_track(
    rng: np.random.Generator, object_id: int, class_probs: np.ndarray
) -> _Track:
    spec = OBJECT_CLASSES[int(rng.choice(len(OBJECT_CLASSES), p=class_probs))]
    distance = float(rng.uniform(MIN_DISTANCE, MAX_DISTANCE))
    cx = float(rng.uniform(0.1, 0.9) * FRAME_WIDTH)
    cy = float(rng.uniform(0.25, 0.85) * FRAME_HEIGHT)
    speed = spec.speed * 10.0 / distance
    heading = float(rng.uniform(0.0, 2.0 * math.pi))
    remaining = max(2, int(rng.exponential(MEAN_TRACK_LENGTH)))
    occluded = rng.random() < OCCLUSION_RATE
    occlusion = float(rng.uniform(0.2, 0.6)) if occluded else 0.0
    return _Track(
        object_id=object_id,
        spec=spec,
        cx=cx,
        cy=cy,
        vx=speed * math.cos(heading),
        vy=speed * math.sin(heading) * 0.3,  # mostly lateral motion
        distance=distance,
        remaining=remaining,
        occlusion=occlusion,
    )


def _track_to_object(
    track: _Track, category: SceneCategory
) -> GroundTruthObject | None:
    width, height = track.apparent_size()
    box = BBox.from_center(track.cx, track.cy, width, height).clip(
        FRAME_WIDTH, FRAME_HEIGHT
    )
    if box.area < 16.0:  # effectively out of frame / sub-pixel
        return None
    # Distance attenuates visibility smoothly; occlusion and scene
    # conditions attenuate it further.  The category factor enters
    # square-rooted: a detector *trained on* this environment compensates
    # most of the condition-specific difficulty (that is what domain
    # training does), and the remaining per-domain contrast is carried by
    # the transfer matrix in repro.simulation.profiles.
    distance_factor = 1.0 - 0.5 * (
        (track.distance - MIN_DISTANCE) / (MAX_DISTANCE - MIN_DISTANCE)
    )
    visibility = (
        math.sqrt(category.visibility)
        * distance_factor
        * (1.0 - track.occlusion)
    )
    visibility = min(max(visibility, 0.0), 1.0)
    return GroundTruthObject(
        object_id=track.object_id,
        box=box,
        label=track.spec.label,
        distance=track.distance,
        visibility=visibility,
    )


def generate_video(
    name: str,
    num_frames: int,
    category: str | SceneCategory,
    seed: int,
    category_schedule: Sequence[SceneCategory] | None = None,
) -> Video:
    """Generate one synthetic video of a given scene category.

    The generation is fully determined by ``(name, seed)``: the RNG
    stream is derived from the seed and the video name, so rebuilding a
    dataset yields bit-identical ground truth.

    Args:
        name: Video name (must be dataset-unique).
        num_frames: Number of frames (> 0).
        category: Scene-category name or instance.  Controls object density
            and the default per-frame conditions.
        seed: Root seed for this video's ground-truth randomness.
        category_schedule: Optional per-frame category override of length
            ``num_frames`` — the gradual-drift extension: conditions (and
            hence object visibility) evolve frame by frame while the object
            population follows ``category``'s density.

    Returns:
        The generated :class:`Video`.
    """
    if num_frames <= 0:
        raise ValueError("num_frames must be positive")
    cat = get_category(category) if isinstance(category, str) else category
    if category_schedule is not None and len(category_schedule) != num_frames:
        raise ValueError(
            f"category_schedule has {len(category_schedule)} entries for "
            f"{num_frames} frames"
        )
    rng = derive_rng(seed, "world", name)

    freqs = np.asarray(
        [spec.relative_frequency for spec in OBJECT_CLASSES], dtype=np.float64
    )
    class_probs = freqs / freqs.sum()

    target_density = MEAN_OBJECTS * cat.density_multiplier
    # Birth rate that keeps the expected population at the target density
    # given geometrically distributed track lifetimes.
    birth_rate = target_density / MEAN_TRACK_LENGTH

    tracks: list[_Track] = []
    next_id = 0
    # Warm-up: start from the stationary population rather than empty.
    initial = rng.poisson(target_density)
    for _ in range(int(initial)):
        tracks.append(_spawn_track(rng, next_id, class_probs))
        next_id += 1

    frames: list[Frame] = []
    for t in range(num_frames):
        births = rng.poisson(birth_rate)
        for _ in range(int(births)):
            tracks.append(_spawn_track(rng, next_id, class_probs))
            next_id += 1

        frame_cat = (
            category_schedule[t] if category_schedule is not None else cat
        )
        objects: list[GroundTruthObject] = []
        for track in tracks:
            obj = _track_to_object(track, frame_cat)
            if obj is not None:
                objects.append(obj)
        frames.append(
            Frame(
                index=t,
                category=frame_cat,
                objects=tuple(objects),
                video_name=name,
            )
        )

        for track in tracks:
            track.step()
        tracks = [
            tr
            for tr in tracks
            if tr.remaining > 0
            and -0.2 * FRAME_WIDTH < tr.cx < 1.2 * FRAME_WIDTH
            and -0.2 * FRAME_HEIGHT < tr.cy < 1.2 * FRAME_HEIGHT
        ]

    return Video(name=name, frames=tuple(frames))
