"""MES — Model Ensemble Selection (Algorithm 1 of the paper).

MES treats each of the ``2^m - 1`` ensembles as a bandit arm and plays UCB1
over estimated scores:

1. **Initialization** (lines 2–3): for the first ``gamma`` frames, every
   ensemble is applied (each model inferred once per frame, each subset
   fused cheaply) and its estimated score recorded.
2. **Iteration** (lines 4–10): pick the ensemble with the highest upper
   confidence bound ``U_S = mu_S + sqrt(2 ln(t-1) / T_S)``, apply it, and —
   the structural trick — also fuse and score *every subset* of the
   selected ensemble, reusing the materialized single-model outputs, so one
   expensive arm pull yields ``2^|S| - 1`` observations.

The expected regret is ``O(|M| log |V|)`` (Theorem 4.1).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.ensembles import EnsembleKey, subsets_inclusive, with_member
from repro.core.environment import DetectionEnvironment, EvaluationBatch
from repro.core.selection import IterativeSelection
from repro.core.stats import BanditStatistics, EnsembleStatistics
from repro.simulation.video import Frame

__all__ = ["MES"]


class MES(IterativeSelection):
    """UCB-based ensemble selection for the TUVI problem.

    The γ initialization, the open-circuit arm masking, the UCB argmax
    and the subset piggyback are written here once; the drift-adaptive
    variants (:mod:`repro.core.sw_mes`) only swap the placeholders that
    :meth:`_new_statistics` makes.

    Args:
        gamma: Number of initialization frames on which every ensemble is
            evaluated (the paper's hyper-parameter ``gamma``; Figure 12
            studies its effect).
        evaluate_subsets: If True (Alg. 1 lines 9–10), score all subsets of
            the selected ensemble each iteration.  The MES-A ablation of
            Figure 8 sets this to False via
            :class:`repro.core.baselines.MESA`.
    """

    name = "MES"

    def __init__(self, gamma: int = 5, evaluate_subsets: bool = True) -> None:
        if gamma < 1:
            raise ValueError("gamma must be at least 1")
        self.gamma = gamma
        self.evaluate_subsets = evaluate_subsets
        self._stats = self._new_statistics()

    def _new_statistics(self) -> BanditStatistics:
        """Fresh placeholders for one run: cumulative ``(T_S, mu_S)``."""
        return EnsembleStatistics()

    def _begin(self, env: DetectionEnvironment, frames: Sequence[Frame]) -> None:
        self._stats = self._new_statistics()

    @property
    def statistics(self) -> BanditStatistics:
        """The current placeholders (read-only use)."""
        return self._stats

    def _choose(
        self, env: DetectionEnvironment, t: int, frame: Frame
    ) -> tuple[EnsembleKey, list[EnsembleKey]]:
        # Arms containing a detector with an open circuit are masked:
        # pulling them can only realize a subset that is itself an arm.
        # Fault-free, available_ensembles() is exactly all_ensembles.
        candidates = env.available_ensembles()
        if t <= self.gamma:
            # Initialization: the selection is conventionally the full
            # ensemble M (Eq. 10) and every available ensemble is
            # evaluated.
            return env.full_ensemble, with_member(
                candidates, env.full_ensemble
            )
        best_key = max(
            candidates,
            key=lambda key: (self._stats.ucb_at(key, t), key),
        )
        if self.evaluate_subsets:
            eval_keys = subsets_inclusive(best_key)
        else:
            eval_keys = [best_key]
        return best_key, eval_keys

    def _update(
        self,
        env: DetectionEnvironment,
        t: int,
        frame: Frame,
        batch: EvaluationBatch,
    ) -> None:
        self._stats.observe(t, batch.observations())
