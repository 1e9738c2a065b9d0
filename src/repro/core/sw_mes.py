"""SW-MES and D-MES — drift-adaptive ensemble selection for TUVI-CD.

SW-MES (Section 3.3) replaces MES's cumulative statistics with
sliding-window statistics over the last ``window`` iterations (Eq. 15/16):
scores observed before the window are forgotten, so after an abrupt
breakpoint the selection re-converges to the new regime's best ensemble.
With a well-chosen window its regret is
``O(|M| sqrt(xi |V| log |V|))`` (Theorem 4.4).

D-MES is the discounted-UCB alternative we add as an ablation of the drift
mechanism: instead of a hard window it decays all observation mass
geometrically each iteration.

Both are MES with other placeholders (Eq. 15/16 against Eq. 8–10): they
subclass :class:`~repro.core.mes.MES` and supply only their statistics.
"""

from __future__ import annotations

import math

from repro.core.mes import MES
from repro.core.stats import (
    BanditStatistics,
    DiscountedStatistics,
    SlidingWindowStatistics,
)

__all__ = ["SWMES", "DMES", "suggested_window"]


def suggested_window(num_frames: int, num_breakpoints: int) -> int:
    """The theory-suggested window ``lambda = sqrt(n log n / xi)``.

    Falls back to ``n`` (no forgetting) for drift-free videos.
    """
    if num_frames < 1:
        raise ValueError("num_frames must be positive")
    if num_breakpoints < 0:
        raise ValueError("num_breakpoints must be non-negative")
    if num_breakpoints == 0:
        return num_frames
    n = max(num_frames, 2)
    return max(int(math.sqrt(n * math.log(n) / num_breakpoints)), 2)


class SWMES(MES):
    """Sliding-window MES.

    Args:
        window: The window size ``lambda``; choose via expert knowledge,
            grid search, or :func:`suggested_window`.
        gamma: Initialization frames (as in MES).
        evaluate_subsets: Alg. 1 lines 9–10 piggyback evaluation.
    """

    name = "SW-MES"

    def __init__(
        self, window: int, gamma: int = 5, evaluate_subsets: bool = True
    ) -> None:
        if window < 1:
            raise ValueError("window must be at least 1")
        self.window = window
        super().__init__(gamma=gamma, evaluate_subsets=evaluate_subsets)

    def _new_statistics(self) -> BanditStatistics:
        return SlidingWindowStatistics(self.window)


class DMES(MES):
    """Discounted-UCB MES (drift-mechanism ablation).

    Args:
        discount: Per-iteration decay of all observation mass in (0, 1].
            1.0 only switches the decay off; the result is still D-UCB,
            not MES: its exploration horizon is the summed observation
            mass over all arms, which subset piggybacking makes far
            larger than ``t``.
        gamma: Initialization frames.
        evaluate_subsets: Alg. 1 lines 9–10 piggyback evaluation.
    """

    name = "D-MES"

    def __init__(
        self,
        discount: float = 0.99,
        gamma: int = 5,
        evaluate_subsets: bool = True,
    ) -> None:
        self.discount = discount
        super().__init__(gamma=gamma, evaluate_subsets=evaluate_subsets)

    def _new_statistics(self) -> BanditStatistics:
        return DiscountedStatistics(self.discount)
