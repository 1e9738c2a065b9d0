"""Simulation substrate: synthetic videos, detectors, and the LiDAR reference.

The paper evaluates on nuScenes and BDD100K with pretrained YOLOv7-family
and Faster R-CNN detectors and a MEGVII LiDAR reference model on a GPU
server.  None of those artifacts are available offline, and the paper's
selection algorithms deliberately treat detectors as black boxes, so this
subpackage provides a faithful synthetic stand-in (see DESIGN.md §2):

* :mod:`repro.simulation.scenes` — scene categories (clear / night / rainy /
  snow / overcast) with visual-difficulty parameters;
* :mod:`repro.simulation.world` — ground-truth scene generation with object
  tracks;
* :mod:`repro.simulation.video` — frame / video / stream value types;
* :mod:`repro.simulation.profiles` — the model zoo of Table 3 and detector
  profiles specialized by training domain;
* :mod:`repro.simulation.detectors` — stochastic black-box camera detectors;
* :mod:`repro.simulation.lidar` — a 3-D LiDAR reference model with pinhole
  projection to the image plane;
* :mod:`repro.simulation.clock` — the simulated cost model and clock;
* :mod:`repro.simulation.datasets` — nuScenes-like and BDD-like dataset
  builders matching Tables 1–2;
* :mod:`repro.simulation.drift` — concept-drift composition by segment
  shuffling (the paper's V_c&n / V_n&r / V_c&n&r construction);
* :mod:`repro.simulation.faults` — seeded fault injection (transients,
  outages, latency spikes, degraded outputs) wrapping any detector.
"""

from repro.simulation.calibration import (
    EstimatedProfile,
    estimate_profile,
    rank_by_recall,
)
from repro.simulation.clock import SimulatedClock
from repro.simulation.datasets import Dataset, build_bdd_like, build_nuscenes_like
from repro.simulation.detectors import SimulatedDetector
from repro.simulation.drift import (
    compose_drifting_video,
    generate_gradual_drift_video,
    interpolate_category,
)
from repro.simulation.faults import (
    FAULT_PROFILE_NAMES,
    DetectorFaultError,
    DetectorOutageError,
    FaultSpec,
    FaultyDetector,
    TransientDetectorError,
    apply_fault_profile,
    fault_profile_specs,
)
from repro.simulation.lidar import SimulatedLidar
from repro.simulation.profiles import (
    ARCHITECTURES,
    DetectorProfile,
    ModelArchitecture,
    make_profile,
)
from repro.simulation.scenes import SCENE_CATEGORIES, SceneCategory
from repro.simulation.video import Frame, GroundTruthObject, Video
from repro.simulation.world import generate_video

__all__ = [
    "ARCHITECTURES",
    "Dataset",
    "DetectorFaultError",
    "DetectorOutageError",
    "DetectorProfile",
    "EstimatedProfile",
    "FAULT_PROFILE_NAMES",
    "FaultSpec",
    "FaultyDetector",
    "Frame",
    "GroundTruthObject",
    "ModelArchitecture",
    "SCENE_CATEGORIES",
    "SceneCategory",
    "SimulatedClock",
    "SimulatedDetector",
    "SimulatedLidar",
    "TransientDetectorError",
    "Video",
    "apply_fault_profile",
    "build_bdd_like",
    "build_nuscenes_like",
    "compose_drifting_video",
    "estimate_profile",
    "fault_profile_specs",
    "generate_gradual_drift_video",
    "generate_video",
    "interpolate_category",
    "make_profile",
    "rank_by_recall",
]
