"""Pareto-optimal ensembles: the paper's MOQO future-work direction.

Section 6 frames ensemble selection as multi-objective query optimization
and notes that the weighted-sum scoring function explores only part of the
solution space; identifying *Pareto-optimal* ensembles — those no other
ensemble beats on both accuracy and time — is called out as future work.
This module implements that direction:

* :func:`pareto_front` over ``(accuracy, cost)`` points;
* :func:`profile_ensembles` — measure every ensemble's average AP and cost
  over a frame sample;
* :func:`pareto_ensembles` — the non-dominated subset of the lattice,
  which can be used to *prune* the arm set handed to MES (every
  weighted-sum optimum lies on the front, so restricting the bandit to the
  front preserves the optimum for any admissible scoring function while
  shrinking ``2^m - 1`` arms to the frontier size).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from repro.core.ensembles import EnsembleKey
from repro.core.environment import DetectionEnvironment
from repro.simulation.video import Frame

__all__ = [
    "EnsemblePoint",
    "dominates",
    "pareto_front",
    "profile_ensembles",
    "pareto_ensembles",
]


@dataclass(frozen=True)
class EnsemblePoint:
    """An ensemble's position in the (accuracy, cost) objective plane.

    Attributes:
        key: The ensemble.
        accuracy: Mean AP over the profiled frames (higher is better).
        cost: Mean normalized inference cost (lower is better).
    """

    key: EnsembleKey
    accuracy: float
    cost: float


def dominates(a: EnsemblePoint, b: EnsemblePoint) -> bool:
    """True if ``a`` Pareto-dominates ``b``.

    Domination requires being at least as good on both objectives and
    strictly better on at least one.
    """
    at_least_as_good = a.accuracy >= b.accuracy and a.cost <= b.cost
    strictly_better = a.accuracy > b.accuracy or a.cost < b.cost
    return at_least_as_good and strictly_better


def pareto_front(points: Iterable[EnsemblePoint]) -> list[EnsemblePoint]:
    """The non-dominated subset, sorted by decreasing accuracy.

    Uses the standard sort-and-sweep: after sorting by (accuracy desc,
    cost asc), a point is on the front iff its cost is strictly below every
    cost seen so far (ties on both axes keep the first canonical key).
    """
    ordered = sorted(
        points, key=lambda p: (-p.accuracy, p.cost, p.key)
    )
    front: list[EnsemblePoint] = []
    best_cost = float("inf")
    for point in ordered:
        if point.cost < best_cost:
            front.append(point)
            best_cost = point.cost
    return front


def profile_ensembles(
    env: DetectionEnvironment,
    frames: Sequence[Frame],
    sample_stride: int = 1,
    keys: Sequence[EnsembleKey] | None = None,
) -> list[EnsemblePoint]:
    """Measure every ensemble's mean true AP and normalized cost.

    Args:
        env: The detection environment.
        frames: Frames to profile over.
        sample_stride: Evaluate every ``stride``-th frame (profiling all
            ensembles is the expensive part; a sparse sample suffices).
        keys: Ensembles to profile; defaults to the whole lattice.

    Returns:
        One point per ensemble.  Profiling peeks
        (:meth:`~repro.core.environment.DetectionEnvironment.peek`): it
        models an offline calibration pass, not billed video ingestion,
        and reads no REF-estimated AP.
    """
    if sample_stride < 1:
        raise ValueError("sample_stride must be at least 1")
    key_list = list(keys) if keys is not None else list(env.all_ensembles)
    sample = frames[::sample_stride]
    if not sample:
        raise ValueError("no frames to profile")
    totals: dict[EnsembleKey, list[float]] = {k: [0.0, 0.0] for k in key_list}
    for frame in sample:
        batch = env.peek(frame, key_list)
        for key, evaluation in batch.evaluations.items():
            totals[key][0] += evaluation.true_ap
            totals[key][1] += evaluation.normalized_cost
    n = len(sample)
    return [
        EnsemblePoint(key=key, accuracy=ap / n, cost=cost / n)
        for key, (ap, cost) in totals.items()
    ]


def pareto_ensembles(
    env: DetectionEnvironment,
    frames: Sequence[Frame],
    sample_stride: int = 1,
) -> list[EnsembleKey]:
    """Keys of the Pareto-optimal ensembles over a frame sample.

    The returned list is ordered from most accurate (and most expensive)
    to cheapest, and always contains at least one ensemble.
    """
    front = pareto_front(profile_ensembles(env, frames, sample_stride))
    return [point.key for point in front]
