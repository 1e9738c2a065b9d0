"""Multi-trial comparison harness (the Section 5.4 protocol).

Every figure of the paper reports statistics over 100 independent trials
with re-sampled datasets.  :func:`compare_algorithms` runs that protocol:
per trial it re-samples the dataset and detector seeds, runs every
algorithm over the identical trial (with a shared evaluation cache), and
aggregates ``s_sum``, ``a_bar`` and ``1 - c_hat`` into mean / std / min /
max summaries — exactly the boxes-and-whiskers content of Figure 4.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field

from repro.core.scoring import ScoringFunction
from repro.core.selection import SelectionAlgorithm, SelectionResult
from repro.engine.backends import ExecutionBackend
from repro.engine.store import EvaluationStore
from repro.obs import NULL_OBS, Observability
from repro.runner.experiment import TrialSetup, run_algorithms

__all__ = ["MetricStats", "TrialOutcome", "compare_algorithms"]


@dataclass(frozen=True)
class MetricStats:
    """Summary statistics of one metric across trials."""

    values: tuple

    @classmethod
    def from_values(cls, values: Sequence[float]) -> MetricStats:
        if not values:
            raise ValueError("MetricStats needs at least one value")
        return cls(values=tuple(float(v) for v in values))

    @property
    def mean(self) -> float:
        return sum(self.values) / len(self.values)

    @property
    def std(self) -> float:
        if len(self.values) < 2:
            return 0.0
        mu = self.mean
        return math.sqrt(
            sum((v - mu) ** 2 for v in self.values) / (len(self.values) - 1)
        )

    @property
    def min(self) -> float:
        return min(self.values)

    @property
    def max(self) -> float:
        return max(self.values)

    def summary(self) -> dict[str, float]:
        return {
            "mean": self.mean,
            "std": self.std,
            "min": self.min,
            "max": self.max,
        }


@dataclass
class TrialOutcome:
    """All per-trial metrics for one algorithm."""

    algorithm: str
    s_sum: list[float] = field(default_factory=list)
    mean_ap: list[float] = field(default_factory=list)
    mean_cost: list[float] = field(default_factory=list)
    frames_processed: list[int] = field(default_factory=list)

    def add(self, result: SelectionResult) -> None:
        self.s_sum.append(result.s_sum)
        self.mean_ap.append(result.mean_true_ap)
        self.mean_cost.append(result.mean_normalized_cost)
        self.frames_processed.append(result.frames_processed)

    def stats(self, metric: str = "s_sum") -> MetricStats:
        """Summary statistics for one of the collected metrics.

        Args:
            metric: ``"s_sum"``, ``"mean_ap"``, ``"mean_cost"`` or
                ``"frames_processed"``.
        """
        values = getattr(self, metric, None)
        if values is None:
            raise KeyError(f"unknown metric {metric!r}")
        return MetricStats.from_values(values)


def compare_algorithms(
    setup_factory: Callable[[int], TrialSetup],
    algorithms: Mapping[str, Callable[[], SelectionAlgorithm]],
    num_trials: int = 10,
    scoring: ScoringFunction | None = None,
    budget_ms: float | None = None,
    store_by_trial: dict[int, EvaluationStore] | None = None,
    backend: ExecutionBackend | None = None,
    obs: Observability = NULL_OBS,
) -> dict[str, TrialOutcome]:
    """Run the multi-trial comparison protocol.

    Every per-algorithm run inside a trial drives the one frame loop of
    :class:`~repro.core.selection.IterativeSelection` through
    :func:`~repro.runner.experiment.run_algorithms`.

    Args:
        setup_factory: Maps a trial number to a (re-sampled) trial setup;
            typically ``lambda trial: standard_setup(dataset, trial=trial)``.
        algorithms: Name -> fresh-instance factory.
        num_trials: Number of independent trials (the paper uses 100).
        scoring: Shared scoring function.
        budget_ms: Optional TCVI budget.
        store_by_trial: Optional per-trial evaluation stores, reused across
            calls (e.g. the budget points of a sweep re-run identical
            trials; sharing stores avoids re-inferring every frame).
        backend: Optional execution backend shared across all trials (the
            caller owns its lifecycle).
        obs: Observability facade shared by the whole comparison; per-trial
            and per-algorithm detail lives in labels/events, while the
            counters accumulate across the protocol.

    Returns:
        Name -> accumulated :class:`TrialOutcome`.
    """
    if num_trials < 1:
        raise ValueError("num_trials must be positive")
    outcomes: dict[str, TrialOutcome] = {
        name: TrialOutcome(algorithm=name) for name in algorithms
    }
    for trial in range(num_trials):
        setup = setup_factory(trial)
        store = None
        if store_by_trial is not None:
            store = store_by_trial.setdefault(trial, EvaluationStore(obs=obs))
        with obs.span("trial", trial=trial):
            results = run_algorithms(
                setup,
                algorithms,
                scoring=scoring,
                budget_ms=budget_ms,
                store=store,
                backend=backend,
                obs=obs,
            )
        obs.count(
            "repro_trials_total",
            description="Completed comparison trials",
        )
        for name, result in results.items():
            outcomes[name].add(result)
    return outcomes
