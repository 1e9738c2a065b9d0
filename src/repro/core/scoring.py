"""Scoring functions: the accuracy/time trade-off of Section 2.2.

A scoring function maps ``(AP, normalized inference time)`` to a score in
``[0, 1]`` that is increasing in AP and decreasing in time.  The paper's
experiments use the weighted logarithmic form of Eq. (30):

    r = w1 * log2(a + 1) + w2 * log2(2 - c_hat),   w1 + w2 = 1,

whose two terms each live in ``[0, 1]``.  Any function satisfying the
Section 2.2 criteria can be substituted; :class:`LinearScore` is provided
as a second instance, and :func:`verify_criteria` checks the monotonicity
and range criteria numerically for user-supplied functions.
"""

from __future__ import annotations

import abc
import math

from repro.utils.validation import check_probability

__all__ = [
    "ScoringFunction",
    "WeightedLogScore",
    "LinearScore",
    "verify_criteria",
]


class ScoringFunction(abc.ABC):
    """Maps (AP, normalized cost) to an aggregate score in ``[0, 1]``.

    The oracle relies on the Section 2.2 criterion that a score is
    non-decreasing in AP, in an exact form:
    :meth:`~repro.core.environment.DetectionEnvironment.peek_best` takes
    ``score(1.0, c_hat)`` as an upper bound on an ensemble's true score
    and never fuses an ensemble whose bound cannot beat the best found.
    So ``score(ap, c) <= score(1.0, c)`` must hold in floating point, for
    every ``ap`` in ``[0, 1]`` and every ``c`` the environment produces;
    otherwise OPT may silently return something other than the argmax.
    :func:`verify_criteria` does not establish this: it samples a grid
    and forgives a decrease up to its tolerance.  For
    :class:`WeightedLogScore` the bound holds: ``log2(2.0) == 1.0``
    exactly, and rounding is monotone, so ``log2(a + 1.0) <= 1.0`` for
    every ``a <= 1.0`` and the weighted sum with the same time term can
    only grow.  For :class:`LinearScore` it holds trivially.
    """

    @abc.abstractmethod
    def score(self, ap: float, normalized_cost: float) -> float:
        """Compute the aggregate score ``r_{S|v}``.

        Args:
            ap: Average precision of the ensemble's output, in ``[0, 1]``.
            normalized_cost: ``c_hat = c_{S|v} / c_max``, in ``[0, 1]``.
        """

    def __call__(self, ap: float, normalized_cost: float) -> float:
        return self.score(ap, normalized_cost)


class _WeightedScore(ScoringFunction):
    """Shared weight handling for two-component scores."""

    def __init__(self, accuracy_weight: float = 0.5, time_weight: float | None = None):
        check_probability(accuracy_weight, "accuracy_weight")
        if time_weight is None:
            time_weight = 1.0 - accuracy_weight
        check_probability(time_weight, "time_weight")
        if not math.isclose(accuracy_weight + time_weight, 1.0, abs_tol=1e-9):
            raise ValueError(
                "accuracy_weight + time_weight must equal 1, got "
                f"{accuracy_weight} + {time_weight}"
            )
        self.accuracy_weight = accuracy_weight
        self.time_weight = time_weight

    @property
    def weights(self) -> tuple[float, float]:
        """``(w1, w2)`` — accuracy and time weights."""
        return (self.accuracy_weight, self.time_weight)

    @staticmethod
    def _check_inputs(ap: float, normalized_cost: float) -> None:
        check_probability(ap, "ap")
        check_probability(normalized_cost, "normalized_cost")

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(w1={self.accuracy_weight}, "
            f"w2={self.time_weight})"
        )


class WeightedLogScore(_WeightedScore):
    """Eq. (30): ``w1 * log2(a + 1) + w2 * log2(2 - c_hat)``.

    Both components are concave: gains saturate at high accuracy, and time
    penalties accelerate as cost approaches the maximum — the shape the
    paper's experiments use throughout Section 5.
    """

    def score(self, ap: float, normalized_cost: float) -> float:
        self._check_inputs(ap, normalized_cost)
        accuracy_term = math.log2(ap + 1.0)
        time_term = math.log2(2.0 - normalized_cost)
        return self.accuracy_weight * accuracy_term + self.time_weight * time_term


class LinearScore(_WeightedScore):
    """The simplest admissible score: ``w1 * a + w2 * (1 - c_hat)``."""

    def score(self, ap: float, normalized_cost: float) -> float:
        self._check_inputs(ap, normalized_cost)
        return (
            self.accuracy_weight * ap
            + self.time_weight * (1.0 - normalized_cost)
        )


def verify_criteria(
    scoring: ScoringFunction, grid_steps: int = 21, tolerance: float = 1e-12
) -> None:
    """Numerically verify the Section 2.2 criteria on a grid.

    Checks that scores stay in ``[0, 1]``, are non-decreasing in AP and
    non-increasing in normalized cost across a uniform grid.

    Raises:
        ValueError: Describing the first violated criterion.
    """
    if grid_steps < 2:
        raise ValueError("grid_steps must be at least 2")
    points = [i / (grid_steps - 1) for i in range(grid_steps)]
    for cost in points:
        previous = None
        for ap in points:
            value = scoring.score(ap, cost)
            if not -tolerance <= value <= 1.0 + tolerance:
                raise ValueError(
                    f"score {value} out of [0, 1] at ap={ap}, cost={cost}"
                )
            if previous is not None and value < previous - tolerance:
                raise ValueError(
                    f"score decreases in AP at ap={ap}, cost={cost}"
                )
            previous = value
    for ap in points:
        previous = None
        for cost in points:
            value = scoring.score(ap, cost)
            if previous is not None and value > previous + tolerance:
                raise ValueError(
                    f"score increases in cost at ap={ap}, cost={cost}"
                )
            previous = value
