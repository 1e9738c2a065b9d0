"""Parameter sweeps behind Figures 5, 6, 9, 11 and 12.

Each sweep varies one experimental knob — scoring weights, budget, pool
size, or the initialization length gamma — and re-runs the multi-trial
comparison at every point, returning nested ``{point: {algorithm:
TrialOutcome}}`` structures the benchmarks format into the paper's series.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence

from repro.core.scoring import WeightedLogScore
from repro.core.selection import SelectionAlgorithm
from repro.engine.store import EvaluationStore
from repro.runner.experiment import TrialSetup
from repro.runner.harness import TrialOutcome, compare_algorithms

__all__ = ["weight_sweep", "budget_sweep", "gamma_sweep"]


def weight_sweep(
    setup_factory: Callable[[int], TrialSetup],
    algorithms: Mapping[str, Callable[[], SelectionAlgorithm]],
    accuracy_weights: Sequence[float] = (0.1, 0.3, 0.5, 0.7, 0.9),
    num_trials: int = 5,
    budget_ms: float | None = None,
) -> dict[float, dict[str, TrialOutcome]]:
    """Re-run the comparison at several ``(w1, w2)`` combinations.

    Figure 5 / Figure 9: ``w1`` is the accuracy weight; ``w2 = 1 - w1``.
    """
    results: dict[float, dict[str, TrialOutcome]] = {}
    # Weight points share per-trial stores: detector outputs and AP values
    # are scoring-independent (scores are recomputed from cached AP).
    store_by_trial: dict[int, EvaluationStore] = {}
    for w1 in accuracy_weights:
        scoring = WeightedLogScore(accuracy_weight=w1)
        results[w1] = compare_algorithms(
            setup_factory,
            algorithms,
            num_trials=num_trials,
            scoring=scoring,
            budget_ms=budget_ms,
            store_by_trial=store_by_trial,
        )
    return results


def budget_sweep(
    setup_factory: Callable[[int], TrialSetup],
    algorithms: Mapping[str, Callable[[], SelectionAlgorithm]],
    budgets_ms: Sequence[float],
    num_trials: int = 3,
    accuracy_weight: float = 0.5,
) -> dict[float, dict[str, TrialOutcome]]:
    """Re-run the comparison at several TCVI budgets (Figure 6)."""
    if not budgets_ms:
        raise ValueError("budgets_ms must be non-empty")
    scoring = WeightedLogScore(accuracy_weight=accuracy_weight)
    results: dict[float, dict[str, TrialOutcome]] = {}
    # Budget points re-run identical trials; sharing per-trial stores means
    # each frame is inferred once across the entire sweep.
    store_by_trial: dict[int, EvaluationStore] = {}
    for budget in budgets_ms:
        results[budget] = compare_algorithms(
            setup_factory,
            algorithms,
            num_trials=num_trials,
            scoring=scoring,
            budget_ms=budget,
            store_by_trial=store_by_trial,
        )
    return results


def gamma_sweep(
    setup_factory: Callable[[int], TrialSetup],
    algorithm_for_gamma: Callable[[int], SelectionAlgorithm],
    gammas: Sequence[int],
    num_trials: int = 3,
    accuracy_weight: float = 0.5,
    budget_ms: float | None = None,
) -> dict[int, TrialOutcome]:
    """Sweep the initialization length gamma for one algorithm (Figure 12).

    Args:
        setup_factory: Trial-setup factory.
        algorithm_for_gamma: Maps a gamma value to a fresh algorithm.
        gammas: Gamma values to test.
        num_trials: Trials per point.
        accuracy_weight: Scoring weight ``w1``.
        budget_ms: Optional budget — the Figure 12 effect (scores rise then
            fall with gamma) appears when time is constrained or when the
            video is short relative to the exploration cost.
    """
    scoring = WeightedLogScore(accuracy_weight=accuracy_weight)
    results: dict[int, TrialOutcome] = {}
    for gamma in gammas:
        outcome = compare_algorithms(
            setup_factory,
            {"algo": (lambda g=gamma: algorithm_for_gamma(g))},
            num_trials=num_trials,
            scoring=scoring,
            budget_ms=budget_ms,
        )
        results[gamma] = outcome["algo"]
    return results
