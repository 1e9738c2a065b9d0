"""Single-trial experiment assembly: detector suites, environments, runs.

The detector suites mirror Section 5.2: YOLOv7-family and Faster R-CNN
structures specialized on different domains.  The ``m = 3`` suite is the
Figure 2 trio (three YOLOv7-tiny models trained on clear / night / rainy —
the paper's Yolo-C / Yolo-N / Yolo-R); ``m = 5`` adds a heavyweight
generalist and a fast generalist, giving the 31-ensemble lattice used in
most experiments; ``m = 2`` is the reduced pool of Figure 11.

:func:`run_algorithms` runs several algorithms over the same trial with a
shared evaluation cache, which is sound because detector outputs are
deterministic per frame — only the clocks and selections differ.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass

from repro.core.environment import DetectionEnvironment, EvaluationStore
from repro.core.scoring import ScoringFunction
from repro.core.selection import SelectionAlgorithm, SelectionResult
from repro.engine.backends import ExecutionBackend
from repro.ensembling.base import EnsembleMethod
from repro.obs import NULL_OBS, Observability
from repro.simulation.datasets import BDD_SPEC, NUSCENES_SPEC, DatasetSpec
from repro.simulation.detectors import SimulatedDetector
from repro.simulation.faults import apply_fault_profile
from repro.simulation.lidar import SimulatedLidar
from repro.simulation.profiles import make_profile
from repro.simulation.video import Frame
from repro.utils.rng import derive_seed

__all__ = [
    "nuscenes_detector_suite",
    "bdd_detector_suite",
    "TrialSetup",
    "standard_setup",
    "make_environment",
    "run_algorithms",
]

#: (architecture, domain) pairs per suite size, ordered so that smaller
#: suites are prefixes of larger ones.
_NUSC_SUITE: tuple[tuple[str, str], ...] = (
    ("yolov7-tiny", "clear"),
    ("yolov7-tiny", "night"),
    ("yolov7-tiny", "rainy"),
    ("yolov7", "all"),
    ("yolov7-micro", "all"),
    ("faster-rcnn", "all"),
)

_BDD_SUITE: tuple[tuple[str, str], ...] = (
    ("yolov7-tiny", "rainy"),
    ("yolov7-tiny", "snow"),
    ("yolov7-tiny", "clear"),
    ("yolov7", "all"),
    ("yolov7-micro", "all"),
    ("faster-rcnn", "all"),
)

#: The largest pool size ``m`` the suites offer.
MAX_POOL_SIZE = min(len(_NUSC_SUITE), len(_BDD_SUITE))


def _build_suite(
    pairs: Sequence[tuple[str, str]], m: int, seed: int
) -> list[SimulatedDetector]:
    if not 1 <= m <= len(pairs):
        raise ValueError(f"m must be in [1, {len(pairs)}], got {m}")
    detectors: list[SimulatedDetector] = []
    for arch, domain in pairs[:m]:
        profile = make_profile(arch, domain)
        detectors.append(
            SimulatedDetector(profile, seed=derive_seed(seed, "det", profile.name))
        )
    return detectors


def nuscenes_detector_suite(m: int = 5, seed: int = 0) -> list[SimulatedDetector]:
    """The nuScenes experiment detector pool (m in 1..6)."""
    return _build_suite(_NUSC_SUITE, m, seed)


def bdd_detector_suite(m: int = 5, seed: int = 0) -> list[SimulatedDetector]:
    """The BDD experiment detector pool (m in 1..6)."""
    return _build_suite(_BDD_SUITE, m, seed)


@dataclass(frozen=True)
class TrialSetup:
    """Everything one experiment trial needs.

    Attributes:
        frames: The frame sequence ``V``.
        detectors: The pool ``M`` — plain :class:`SimulatedDetector`
            instances, or :class:`~repro.simulation.faults.FaultyDetector`
            wrappers when the setup injects faults.
        reference: The REF model.
        label: Human-readable dataset label (e.g. ``"nusc-night"``).
    """

    frames: tuple[Frame, ...]
    detectors: tuple[object, ...]
    reference: SimulatedLidar
    label: str


#: Dataset keys accepted by :func:`standard_setup`, mapped to
#: (dataset spec, group, detector suite) triples.  ``None`` group means
#: the whole dataset.
_DATASET_REGISTRY: dict[
    str, tuple[DatasetSpec, str | None, Callable[..., list[SimulatedDetector]]]
] = {
    "nusc": (NUSCENES_SPEC, None, nuscenes_detector_suite),
    "nusc-clear": (NUSCENES_SPEC, "nusc-clear", nuscenes_detector_suite),
    "nusc-night": (NUSCENES_SPEC, "nusc-night", nuscenes_detector_suite),
    "nusc-rainy": (NUSCENES_SPEC, "nusc-rainy", nuscenes_detector_suite),
    "bdd": (BDD_SPEC, None, bdd_detector_suite),
    "bdd-rainy": (BDD_SPEC, "bdd-rainy", bdd_detector_suite),
    "bdd-snow": (BDD_SPEC, "bdd-snow", bdd_detector_suite),
}


def dataset_keys() -> list[str]:
    """The dataset labels accepted by :func:`standard_setup`."""
    return sorted(_DATASET_REGISTRY)


def standard_setup(
    dataset: str = "nusc",
    trial: int = 0,
    scale: float = 0.01,
    m: int = 5,
    max_frames: int | None = None,
    seed: int = 0,
    fault_profile: str = "none",
    fault_seed: int | None = None,
) -> TrialSetup:
    """Build a trial: resampled dataset + detector suite + LiDAR REF.

    Only the frames the trial reads are generated: the requested group's
    leading scenes, up to ``max_frames``.  They are identical to the
    same frames of the fully built dataset
    (:meth:`~repro.simulation.datasets.DatasetSpec.leading_frames`).

    Args:
        dataset: One of :func:`dataset_keys`.
        trial: Trial number; trials differ in dataset resampling and
            detector noise seeds (the Section 5.4 protocol).
        scale: Fraction of the paper's scene counts to generate.
        m: Detector-pool size.
        max_frames: Optional cap on the frame-sequence length.
        seed: Base seed of the whole experiment family.
        fault_profile: One of
            :data:`~repro.simulation.faults.FAULT_PROFILE_NAMES`;
            anything but ``"none"`` wraps the suite in seeded
            :class:`~repro.simulation.faults.FaultyDetector` instances.
        fault_seed: Root seed of the fault streams; derived from ``seed``
            and the trial when omitted, so trials fail differently but
            reproducibly.
    """
    if dataset not in _DATASET_REGISTRY:
        raise KeyError(
            f"unknown dataset {dataset!r}; known: {dataset_keys()}"
        )
    spec, group, suite = _DATASET_REGISTRY[dataset]
    frames = spec.scaled(scale).leading_frames(
        derive_seed(seed, "data", dataset, trial), group, max_frames
    )

    suite_seed = derive_seed(seed, "suite", dataset, trial)
    detectors: list[object] = list(suite(m, seed=suite_seed))
    if fault_profile != "none":
        if fault_seed is None:
            fault_seed = derive_seed(seed, "faults", dataset, trial)
        detectors = apply_fault_profile(
            detectors, fault_profile, seed=fault_seed
        )
    reference = SimulatedLidar(seed=derive_seed(seed, "lidar", dataset, trial))
    return TrialSetup(
        frames=frames,
        detectors=tuple(detectors),
        reference=reference,
        label=dataset,
    )


def make_environment(
    setup: TrialSetup,
    scoring: ScoringFunction | None = None,
    fusion: EnsembleMethod | None = None,
    store: EvaluationStore | None = None,
    backend: ExecutionBackend | None = None,
    obs: Observability = NULL_OBS,
) -> DetectionEnvironment:
    """A fresh environment over a trial setup (optionally sharing a store).

    Args:
        setup: The trial.
        scoring / fusion: Environment configuration; ``None`` keeps the
            environment's defaults.
        store: Optional shared :class:`EvaluationStore`.
        backend: Optional execution backend (serial by default).
        obs: Observability facade threaded into the environment (and
            through it, the selection frame loop).
    """
    return DetectionEnvironment(
        detectors=list(setup.detectors),
        reference=setup.reference,
        scoring=scoring,
        fusion=fusion,
        store=store,
        backend=backend,
        obs=obs,
    )


def run_algorithms(
    setup: TrialSetup,
    algorithms: Mapping[str, Callable[[], SelectionAlgorithm]],
    scoring: ScoringFunction | None = None,
    budget_ms: float | None = None,
    fusion: EnsembleMethod | None = None,
    store: EvaluationStore | None = None,
    backend: ExecutionBackend | None = None,
    obs: Observability = NULL_OBS,
) -> dict[str, SelectionResult]:
    """Run several algorithms on one trial with a shared evaluation store.

    Args:
        setup: The trial.
        algorithms: Name -> zero-argument factory producing a *fresh*
            algorithm instance (selection algorithms are stateful).
        scoring: Scoring function shared by all runs.
        budget_ms: Optional TCVI budget applied to every run.
        fusion: Fusion method (WBF by default).
        store: Optional externally owned :class:`EvaluationStore` (e.g.
            shared across the budget points of a sweep over the same
            trial).
        backend: Optional execution backend shared by all runs (the caller
            owns its lifecycle).
        obs: Observability facade shared by every run (per-algorithm
            series are separated by the ``algorithm`` metric label).

    Returns:
        Name -> the algorithm's :class:`SelectionResult`.
    """
    if store is None:
        store = EvaluationStore(obs=obs)
    results: dict[str, SelectionResult] = {}
    for name, factory in algorithms.items():
        env = make_environment(
            setup,
            scoring=scoring,
            fusion=fusion,
            store=store,
            backend=backend,
            obs=obs,
        )
        algorithm = factory()
        results[name] = algorithm.run(env, setup.frames, budget_ms=budget_ms)
    return results
