"""repro — reproduction of "Ensembling Object Detectors for Effective
Video Query Processing" (Chao, Koudas, Yu, Chen; EDBT 2025).

The package implements the paper's contribution — per-frame selection of
object-detector ensembles balancing accuracy and inference time — together
with every substrate it depends on: box-fusion methods (WBF and the
alternatives of Section 5.2), AP metrics, a LiDAR reference model for
ground-truth-free accuracy estimation, synthetic nuScenes-/BDD-like
datasets, and a small video query language.

Quickstart::

    from repro import MES, WeightedLogScore
    from repro.runner import standard_setup, make_environment

    setup = standard_setup("nusc-night", trial=0, max_frames=200)
    env = make_environment(setup, scoring=WeightedLogScore(0.5))
    result = MES(gamma=5).run(env, setup.frames)
    print(result.s_sum, result.mean_true_ap)

See README.md for the full tour and DESIGN.md for the experiment index.
"""

from importlib import import_module
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.core import (
        BruteForce,
        DMES,
        DetectionEnvironment,
        ExploreFirst,
        LRBP,
        LinearScore,
        MES,
        MESA,
        MESB,
        Oracle,
        RandomSelection,
        SWMES,
        ScoringFunction,
        SelectionAlgorithm,
        SelectionResult,
        SingleBest,
        WeightedLogScore,
    )
    from repro.detection import BBox, Detection, FrameDetections, average_precision
    from repro.ensembling import WeightedBoxesFusion, available_methods, create_method
    from repro.simulation import (
        SimulatedDetector,
        SimulatedLidar,
        Video,
        build_bdd_like,
        build_nuscenes_like,
        compose_drifting_video,
    )

__version__ = "1.0.0"

__all__ = [
    "BBox",
    "BruteForce",
    "DMES",
    "Detection",
    "DetectionEnvironment",
    "ExploreFirst",
    "FrameDetections",
    "LRBP",
    "LinearScore",
    "MES",
    "MESA",
    "MESB",
    "Oracle",
    "RandomSelection",
    "SWMES",
    "ScoringFunction",
    "SelectionAlgorithm",
    "SelectionResult",
    "SimulatedDetector",
    "SimulatedLidar",
    "SingleBest",
    "Video",
    "WeightedBoxesFusion",
    "WeightedLogScore",
    "available_methods",
    "average_precision",
    "build_bdd_like",
    "build_nuscenes_like",
    "compose_drifting_video",
    "create_method",
    "__version__",
]

#: The package that defines each re-exported name.  A name is imported
#: at its first access (PEP 562), so ``import repro.lint`` and
#: ``python -m repro.lint`` load neither numpy nor the detection stack.
_HOMES = {
    "BBox": "repro.detection",
    "BruteForce": "repro.core",
    "DMES": "repro.core",
    "Detection": "repro.detection",
    "DetectionEnvironment": "repro.core",
    "ExploreFirst": "repro.core",
    "FrameDetections": "repro.detection",
    "LRBP": "repro.core",
    "LinearScore": "repro.core",
    "MES": "repro.core",
    "MESA": "repro.core",
    "MESB": "repro.core",
    "Oracle": "repro.core",
    "RandomSelection": "repro.core",
    "SWMES": "repro.core",
    "ScoringFunction": "repro.core",
    "SelectionAlgorithm": "repro.core",
    "SelectionResult": "repro.core",
    "SimulatedDetector": "repro.simulation",
    "SimulatedLidar": "repro.simulation",
    "SingleBest": "repro.core",
    "Video": "repro.simulation",
    "WeightedBoxesFusion": "repro.ensembling",
    "WeightedLogScore": "repro.core",
    "available_methods": "repro.ensembling",
    "average_precision": "repro.detection",
    "build_bdd_like": "repro.simulation",
    "build_nuscenes_like": "repro.simulation",
    "compose_drifting_video": "repro.simulation",
    "create_method": "repro.ensembling",
}


def __getattr__(name: str) -> object:
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(home), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOMES})
