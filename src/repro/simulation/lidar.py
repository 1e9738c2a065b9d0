"""A simulated LiDAR reference model (the paper's REF := LiDAR).

The paper estimates ensemble AP against boxes produced by a LiDAR 3-D
detector (MEGVII on nuScenes), projected into the camera image (Section
2.3).  We reproduce that pipeline end to end over the synthetic world:

1. each ground-truth object is lifted to a 3-D box in camera coordinates
   using its simulated depth and a pinhole camera model;
2. the LiDAR detector observes the 3-D box with additive metric noise,
   misses distant / low-reflectivity objects occasionally, and hallucinates
   a few clusters;
3. surviving 3-D boxes are projected back onto the image plane, producing
   the 2-D ``BBox_{REF|v}`` set the selection algorithms compare against.

Crucially, LiDAR error is (a) nearly independent of lighting — night
frames are no harder — and (b) statistically independent of every camera
detector's error, which is what makes agreement with REF a usable proxy
for agreement with ground truth.  Its inference time is an order of
magnitude below the camera detectors (``c_LiDAR << c_M``), matching the
paper's Section 2.3 observation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.detection.boxes import BBox
from repro.detection.types import Detection, FrameDetections
from repro.simulation.detectors import DetectorOutput, _sample_confidence
from repro.simulation.video import (
    FRAME_HEIGHT,
    FRAME_WIDTH,
    Frame,
    GroundTruthObject,
)
from repro.simulation.world import MAX_DISTANCE, MIN_DISTANCE
from repro.utils.rng import derive_rng
from repro.utils.validation import check_positive, check_probability

__all__ = ["LidarBox3D", "SimulatedLidar", "back_project", "project_point"]

#: Focal length of the ideal pinhole camera in pixels (nuScenes cameras
#: ~1266 px); its principal point is the frame center.
FOCAL_LENGTH_PX = 1266.0

#: Probability of detecting a fully LiDAR-visible object.  LiDAR misses
#: mostly come from sparsity at range, not from lighting.
DETECTION_SKILL = 0.97

#: Std-dev of the metric center noise, in meters.
POSITION_NOISE_M = 0.12

#: Relative std-dev of the metric extent noise.
EXTENT_NOISE = 0.04

#: Expected spurious clusters per sweep.
FALSE_POSITIVE_RATE = 0.10

#: Mean inference time; an order of magnitude below the camera detectors
#: (c_LiDAR << c_M).
BASE_TIME_MS = 4.0

#: Probability a detection is correctly classified (3-D shape alone is a
#: weaker class cue than appearance).
LABEL_ACCURACY = 0.96


def project_point(x: float, y: float, z: float) -> tuple[float, float]:
    """Project a camera-frame 3-D point (z forward) to pixels."""
    if z <= 0:
        raise ValueError("cannot project a point at or behind the camera")
    u = FRAME_WIDTH / 2 + FOCAL_LENGTH_PX * x / z
    v = FRAME_HEIGHT / 2 + FOCAL_LENGTH_PX * y / z
    return u, v


def back_project(u: float, v: float, depth: float) -> tuple[float, float, float]:
    """Lift a pixel at a known depth to a camera-frame 3-D point."""
    check_positive(depth, "depth")
    x = (u - FRAME_WIDTH / 2) * depth / FOCAL_LENGTH_PX
    y = (v - FRAME_HEIGHT / 2) * depth / FOCAL_LENGTH_PX
    return x, y, depth


@dataclass(frozen=True)
class LidarBox3D:
    """An upright 3-D box in camera coordinates (z = depth, meters).

    Attributes:
        x / y / z: Box center.
        width / height: Metric extents in the image-parallel plane.
        depth_extent: Extent along the viewing axis.
        label: Object class.
        score: Detector score in ``[0, 1]``.
        object_id: Ground-truth identity when known.
    """

    x: float
    y: float
    z: float
    width: float
    height: float
    depth_extent: float
    label: str
    score: float
    object_id: int | None = None

    def __post_init__(self) -> None:
        check_positive(self.z, "z")
        check_positive(self.width, "width")
        check_positive(self.height, "height")
        check_positive(self.depth_extent, "depth_extent")
        check_probability(self.score, "score")

    def project(self, frame: Frame) -> BBox | None:
        """Project the 3-D box onto the image plane as a 2-D box.

        The eight corners are projected and their axis-aligned hull taken;
        for an upright box this reduces to projecting the near face (the
        face closest to the camera subtends the largest image area).

        Returns:
            The clipped 2-D box, or None if it falls outside the frame.
        """
        near_z = max(self.z - self.depth_extent / 2.0, 0.1)
        half_w = self.width / 2.0
        half_h = self.height / 2.0
        u1, v1 = project_point(self.x - half_w, self.y - half_h, near_z)
        u2, v2 = project_point(self.x + half_w, self.y + half_h, near_z)
        box = BBox(min(u1, u2), min(v1, v2), max(u1, u2), max(v1, v2)).clip(
            frame.width, frame.height
        )
        if box.area < 16.0:
            return None
        return box


def lift_object(obj: GroundTruthObject) -> LidarBox3D:
    """Lift a ground-truth 2-D object to its implied 3-D box.

    The object's simulated distance provides the depth; the 2-D box corners
    are back-projected at that depth to recover metric extents.
    """
    cx, cy = obj.box.center
    x, y, z = back_project(cx, cy, obj.distance)
    width = obj.box.width * obj.distance / FOCAL_LENGTH_PX
    height = obj.box.height * obj.distance / FOCAL_LENGTH_PX
    return LidarBox3D(
        x=x,
        y=y,
        z=z,
        width=max(width, 0.1),
        height=max(height, 0.1),
        depth_extent=max(min(width, height), 0.5),
        label=obj.label,
        score=1.0,
        object_id=obj.object_id,
    )


class SimulatedLidar:
    """The LiDAR reference detector.

    Args:
        seed: Root seed for the LiDAR noise stream.
    """

    #: Reference-model name used in detection provenance.
    name: str = "lidar-ref"

    #: Mean per-frame inference time.
    expected_time_ms: float = BASE_TIME_MS

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed

    def detect3d(self, frame: Frame) -> list[LidarBox3D]:
        """Produce noisy 3-D detections for one frame's LiDAR sweep."""
        rng = derive_rng(self.seed, "lidar3d", frame.key)
        lidar_vis = frame.category.lidar_visibility
        boxes: list[LidarBox3D] = []
        for obj in frame.objects:
            # Range-dependent sparsity: detection probability decays with
            # distance but not with darkness.
            range_factor = max(1.0 - obj.distance / 120.0, 0.3)
            p = DETECTION_SKILL * lidar_vis * range_factor
            if rng.random() >= p:
                continue
            true_box = lift_object(obj)
            score = _sample_confidence(rng, 0.85 * range_factor + 0.1, 12.0)
            label = obj.label
            if rng.random() >= LABEL_ACCURACY:
                label = "car" if obj.label != "car" else "truck"
            boxes.append(
                LidarBox3D(
                    x=true_box.x + rng.normal(0.0, POSITION_NOISE_M),
                    y=true_box.y + rng.normal(0.0, POSITION_NOISE_M),
                    z=max(
                        true_box.z + rng.normal(0.0, POSITION_NOISE_M * 2),
                        0.5,
                    ),
                    width=max(
                        true_box.width * (1 + rng.normal(0.0, EXTENT_NOISE)),
                        0.1,
                    ),
                    height=max(
                        true_box.height * (1 + rng.normal(0.0, EXTENT_NOISE)),
                        0.1,
                    ),
                    depth_extent=true_box.depth_extent,
                    label=label,
                    score=score,
                    object_id=obj.object_id,
                )
            )

        num_fp = int(rng.poisson(FALSE_POSITIVE_RATE))
        for _ in range(num_fp):
            z = float(rng.uniform(MIN_DISTANCE, MAX_DISTANCE))
            x = float(rng.uniform(-0.4, 0.4)) * z
            y = float(rng.uniform(-0.1, 0.25)) * z
            boxes.append(
                LidarBox3D(
                    x=x,
                    y=y,
                    z=z,
                    width=float(rng.uniform(0.5, 3.0)),
                    height=float(rng.uniform(0.5, 2.5)),
                    depth_extent=float(rng.uniform(0.5, 3.0)),
                    label=str(rng.choice(["car", "truck", "pedestrian"])),
                    score=_sample_confidence(rng, 0.3, 8.0),
                )
            )
        return boxes

    def detect(self, frame: Frame) -> DetectorOutput:
        """Full REF pipeline: 3-D detection, then projection to 2-D boxes."""
        rng = derive_rng(self.seed, "lidar-time", frame.key)
        boxes3d = self.detect3d(frame)
        detections: list[Detection] = []
        for box3d in boxes3d:
            box2d = box3d.project(frame)
            if box2d is None:
                continue
            detections.append(
                Detection(
                    box=box2d,
                    confidence=box3d.score,
                    label=box3d.label,
                    source=self.name,
                    object_id=box3d.object_id,
                )
            )
        time_ms = BASE_TIME_MS * float(rng.uniform(0.95, 1.05))
        return DetectorOutput(
            detections=FrameDetections(
                frame.index, tuple(detections), source=self.name
            ),
            inference_time_ms=time_ms,
        )

    def __repr__(self) -> str:
        return f"SimulatedLidar(name={self.name!r}, skill={DETECTION_SKILL})"
