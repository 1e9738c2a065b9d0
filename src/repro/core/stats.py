"""Bandit placeholders: ``T_S`` and ``mu_S`` in three flavours.

* :class:`EnsembleStatistics` — the cumulative counts and means of MES
  (Eq. 10), with the UCB exploration bonus ``sqrt(2 ln t / T_S)``;
* :class:`SlidingWindowStatistics` — the windowed counterparts of SW-MES
  (Eq. 15/16), observing only the last ``window`` iterations;
* :class:`DiscountedStatistics` — an exponentially discounted alternative
  (the D-UCB family), provided as the drift-adaptation ablation D-MES.

An ensemble never observed (``T_S = 0``) has an infinite exploration bonus,
so UCB selection visits every arm before exploiting.

All three implement :class:`BanditStatistics`, the two operations MES's
UCB step (:class:`~repro.core.mes.MES`) needs from its placeholders.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Iterable
from typing import Protocol

from repro.core.ensembles import EnsembleKey

__all__ = [
    "BanditStatistics",
    "EnsembleStatistics",
    "SlidingWindowStatistics",
    "DiscountedStatistics",
]


class BanditStatistics(Protocol):
    """The placeholders of one UCB loop, as MES reads and writes them."""

    def observe(
        self, t: int, observations: Iterable[tuple[EnsembleKey, float]]
    ) -> None:
        """Fold iteration ``t``'s ``(ensemble, est_score)`` observations."""

    def ucb_at(self, key: EnsembleKey, t: int) -> float:
        """The UCB index of ``key`` when choosing at iteration ``t``."""


class EnsembleStatistics:
    """Cumulative per-ensemble observation counts and score means."""

    def __init__(self) -> None:
        self._counts: dict[EnsembleKey, int] = {}
        self._means: dict[EnsembleKey, float] = {}

    def record(self, key: EnsembleKey, reward: float) -> None:
        """Fold one observed score into ``(T_S, mu_S)`` (Eq. 8/9)."""
        count = self._counts.get(key, 0) + 1
        mean = self._means.get(key, 0.0)
        self._counts[key] = count
        self._means[key] = mean + (reward - mean) / count

    def count(self, key: EnsembleKey) -> int:
        """``T_S`` — number of iterations in which ``S``'s score was observed."""
        return self._counts.get(key, 0)

    def mean(self, key: EnsembleKey) -> float:
        """``mu_S`` — mean observed score (0 before any observation)."""
        return self._means.get(key, 0.0)

    def exploration_bonus(self, key: EnsembleKey, t: int) -> float:
        """``Gamma_S = sqrt(2 ln t / T_S)``; infinite when unobserved."""
        count = self.count(key)
        if count == 0:
            return math.inf
        return math.sqrt(2.0 * math.log(max(t, 2)) / count)

    def ucb(self, key: EnsembleKey, t: int) -> float:
        """Upper confidence bound ``U_S`` (Eq. 7)."""
        return self.mean(key) + self.exploration_bonus(key, t)

    def observed_keys(self) -> list[EnsembleKey]:
        return sorted(self._counts)

    def observe(
        self, t: int, observations: Iterable[tuple[EnsembleKey, float]]
    ) -> None:
        for key, reward in observations:
            self.record(key, reward)

    def ucb_at(self, key: EnsembleKey, t: int) -> float:
        """``U_S`` at iteration ``t``, over the ``t - 1`` seen (Alg. 1)."""
        return self.ucb(key, t - 1)


class SlidingWindowStatistics:
    """Windowed ``T^lambda_S`` / ``mu^lambda_S`` for SW-MES (Eq. 15).

    Observations older than ``window`` iterations are forgotten, which both
    adapts to concept drift and washes out a misleading initialization.
    """

    def __init__(self, window: int) -> None:
        if window < 1:
            raise ValueError("window must be at least 1")
        self.window = window
        self._history: dict[EnsembleKey, deque[tuple[int, float]]] = {}

    def record(self, key: EnsembleKey, reward: float, iteration: int) -> None:
        """Record the score observed for ``S`` at iteration ``iteration``."""
        if iteration < 1:
            raise ValueError("iteration numbering starts at 1")
        queue = self._history.setdefault(key, deque())
        if queue and queue[-1][0] > iteration:
            raise ValueError("iterations must be recorded in order")
        queue.append((iteration, reward))
        self._evict(queue, iteration)

    def _evict(self, queue: deque[tuple[int, float]], now: int) -> None:
        horizon = now - self.window
        while queue and queue[0][0] <= horizon:
            queue.popleft()

    def count(self, key: EnsembleKey, now: int) -> int:
        """``T^lambda_S`` at iteration ``now``."""
        queue = self._history.get(key)
        if not queue:
            return 0
        self._evict(queue, now)
        return len(queue)

    def mean(self, key: EnsembleKey, now: int) -> float:
        """``mu^lambda_S`` at iteration ``now`` (0 when the window is empty)."""
        queue = self._history.get(key)
        if not queue:
            return 0.0
        self._evict(queue, now)
        if not queue:
            return 0.0
        return sum(reward for _, reward in queue) / len(queue)

    def exploration_bonus(self, key: EnsembleKey, t: int) -> float:
        """``Gamma^lambda_S = sqrt(2 ln(min(t-1, lambda)) / T^lambda_S)``."""
        count = self.count(key, t)
        if count == 0:
            return math.inf
        effective = max(min(t - 1, self.window), 2)
        return math.sqrt(2.0 * math.log(effective) / count)

    def ucb(self, key: EnsembleKey, t: int) -> float:
        """Windowed UCB (Eq. 16)."""
        return self.mean(key, t) + self.exploration_bonus(key, t)

    def observe(
        self, t: int, observations: Iterable[tuple[EnsembleKey, float]]
    ) -> None:
        for key, reward in observations:
            self.record(key, reward, iteration=t)

    def ucb_at(self, key: EnsembleKey, t: int) -> float:
        return self.ucb(key, t)


class DiscountedStatistics:
    """Exponentially discounted counts/means (the D-UCB alternative).

    Every call to :meth:`advance` multiplies all accumulated weight by the
    discount factor; recent observations therefore dominate without a hard
    window edge.
    """

    def __init__(self, discount: float = 0.99) -> None:
        if not 0.0 < discount <= 1.0:
            raise ValueError("discount must be in (0, 1]")
        self.discount = discount
        self._weights: dict[EnsembleKey, float] = {}
        self._weighted_sums: dict[EnsembleKey, float] = {}

    def advance(self) -> None:
        """Decay all statistics by one iteration."""
        for key in self._weights:
            self._weights[key] *= self.discount
            self._weighted_sums[key] *= self.discount

    def record(self, key: EnsembleKey, reward: float) -> None:
        self._weights[key] = self._weights.get(key, 0.0) + 1.0
        self._weighted_sums[key] = self._weighted_sums.get(key, 0.0) + reward

    def count(self, key: EnsembleKey) -> float:
        """Discounted observation mass ``N_S`` (fractional)."""
        return self._weights.get(key, 0.0)

    def mean(self, key: EnsembleKey) -> float:
        weight = self._weights.get(key, 0.0)
        if weight <= 0.0:
            return 0.0
        return self._weighted_sums[key] / weight

    def exploration_bonus(self, key: EnsembleKey) -> float:
        """D-UCB bonus using total discounted mass as the horizon."""
        count = self.count(key)
        if count <= 0.0:
            return math.inf
        total = sum(self._weights.values())
        return math.sqrt(2.0 * math.log(max(total, 2.0)) / count)

    def ucb(self, key: EnsembleKey) -> float:
        return self.mean(key) + self.exploration_bonus(key)

    def observe(
        self, t: int, observations: Iterable[tuple[EnsembleKey, float]]
    ) -> None:
        """Decay everything by one iteration, then fold the new scores."""
        self.advance()
        for key, reward in observations:
            self.record(key, reward)

    def ucb_at(self, key: EnsembleKey, t: int) -> float:
        return self.ucb(key)
