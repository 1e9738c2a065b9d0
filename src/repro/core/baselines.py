"""Baseline selection strategies (Section 5.3) and the MES-A ablation.

* :class:`Oracle` (OPT) — selects the true-score-optimal ensemble per frame
  using ground truth; the upper bound no online algorithm can beat.
* :class:`BruteForce` (BF) — always the full ensemble ``M``.
* :class:`SingleBest` (SGL) — always the single detector that is most
  accurate on average over the video.
* :class:`RandomSelection` (RAND) — a uniformly random ensemble per frame.
* :class:`ExploreFirst` (EF) — the explore-first multi-armed-bandit
  strategy: evaluate every ensemble on the first ``delta`` frames, then
  commit to the best estimated one for the rest of the video.
* :class:`MESA` (MES-A) — MES without the subset piggyback evaluation
  (Alg. 1 lines 9–10 removed), the Figure 8 ablation.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.ensembles import EnsembleKey, make_key
from repro.core.environment import (
    DetectionEnvironment,
    EvaluationBatch,
    FrameEvaluationError,
)
from repro.core.mes import MES
from repro.core.selection import IterativeSelection
from repro.core.stats import EnsembleStatistics
from repro.simulation.video import Frame
from repro.utils.rng import derive_rng

__all__ = [
    "Oracle",
    "BruteForce",
    "SingleBest",
    "RandomSelection",
    "ExploreFirst",
    "MESA",
]


class Oracle(IterativeSelection):
    """OPT: the per-frame best ensemble by *true* score.

    The oracle peeks at the ensembles' ground-truth scores without
    consuming budget (an impossible luxury online — Section 5.3 includes it
    purely as the attainable ceiling), then is billed only for the ensemble
    it actually selects.  The peek is
    :meth:`~repro.core.environment.DetectionEnvironment.peek_best`, the
    exact ``(true_score, key)`` argmax over every ensemble, which skips
    the ensembles whose score cannot win.
    """

    name = "OPT"
    needs_reference = False  # selects on *true* scores only

    def _choose(
        self, env: DetectionEnvironment, t: int, frame: Frame
    ) -> tuple[EnsembleKey, list[EnsembleKey]]:
        best_key = env.peek_best(frame, env.all_ensembles).key
        return best_key, [best_key]


class BruteForce(IterativeSelection):
    """BF: the largest ensemble ``M`` on every frame."""

    name = "BF"
    needs_reference = False  # unconditional full-ensemble choice

    def _choose(
        self, env: DetectionEnvironment, t: int, frame: Frame
    ) -> tuple[EnsembleKey, list[EnsembleKey]]:
        return env.full_ensemble, [env.full_ensemble]


class SingleBest(IterativeSelection):
    """SGL: the on-average most accurate single detector, on every frame.

    The paper defines SGL against the detector's average accuracy across
    all frames — knowledge an operator would have from offline validation.
    We determine it with an uncharged peek of the single detectors over a
    sample of the video (all frames by default).
    """

    name = "SGL"
    supports_streaming = False  # the calibration pass pre-scans the video
    needs_reference = False  # calibrates on true AP, not REF estimates

    def __init__(self, calibration_frames: int | None = None) -> None:
        if calibration_frames is not None and calibration_frames < 1:
            raise ValueError("calibration_frames must be positive when given")
        self.calibration_frames = calibration_frames
        self._best: EnsembleKey | None = None

    def _begin(self, env: DetectionEnvironment, frames: Sequence[Frame]) -> None:
        sample: Sequence[Frame] = frames
        if (
            self.calibration_frames is not None
            and len(frames) > self.calibration_frames
        ):
            stride = max(len(frames) // self.calibration_frames, 1)
            sample = frames[::stride][: self.calibration_frames]
        singles = [make_key([name]) for name in env.model_names]
        totals = {key: 0.0 for key in singles}
        # Batched pre-scan: submit every missing (model, frame) inference
        # of the calibration sample as one backend batch, so the
        # per-frame peeks below run against a warm store.  Fault-free,
        # the outputs (and so the calibration result) are bit-identical
        # either way; under faults the batch meets one breaker snapshot.
        env.prefetch(sample)
        for frame in sample:
            try:
                batch = env.peek(frame, singles)
            except FrameEvaluationError:
                continue  # nothing usable on this frame; skip it
            for key in singles:
                evaluation = batch.evaluations.get(key)
                if evaluation is not None:
                    # A detector that fails on a frame simply contributes
                    # nothing here — operationally it *is* worse.
                    totals[key] += evaluation.true_ap
        self._best = max(singles, key=lambda key: (totals[key], key))

    def _choose(
        self, env: DetectionEnvironment, t: int, frame: Frame
    ) -> tuple[EnsembleKey, list[EnsembleKey]]:
        assert self._best is not None, "_begin() must run before _choose()"
        return self._best, [self._best]


class RandomSelection(IterativeSelection):
    """RAND: a uniformly random ensemble per frame."""

    name = "RAND"
    needs_reference = False  # choices are seeded-random, score-blind

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._rng = derive_rng(seed, "rand-baseline")

    def _begin(self, env: DetectionEnvironment, frames: Sequence[Frame]) -> None:
        self._rng = derive_rng(self.seed, "rand-baseline")

    def _choose(
        self, env: DetectionEnvironment, t: int, frame: Frame
    ) -> tuple[EnsembleKey, list[EnsembleKey]]:
        index = int(self._rng.integers(len(env.all_ensembles)))
        key = env.all_ensembles[index]
        return key, [key]


class ExploreFirst(IterativeSelection):
    """EF: explore every ensemble for ``delta`` frames, then commit.

    EF is the classical MAB strawman the paper compares against: it spends
    a fixed exploration prefix, picks the ensemble with the best mean
    estimated score, and never reconsiders — so one unlucky prefix commits
    it to a suboptimal arm for the entire video (hence its wide min/max
    band in Figure 4).
    """

    name = "EF"

    def __init__(self, delta: int = 5) -> None:
        if delta < 1:
            raise ValueError("delta must be at least 1")
        self.delta = delta
        self._stats = EnsembleStatistics()
        self._committed: EnsembleKey | None = None

    def _begin(self, env: DetectionEnvironment, frames: Sequence[Frame]) -> None:
        self._stats = EnsembleStatistics()
        self._committed = None

    def _choose(
        self, env: DetectionEnvironment, t: int, frame: Frame
    ) -> tuple[EnsembleKey, list[EnsembleKey]]:
        if t <= self.delta:
            return env.full_ensemble, list(env.all_ensembles)
        if self._committed is None:
            self._committed = max(
                env.all_ensembles,
                key=lambda key: (self._stats.mean(key), key),
            )
        return self._committed, [self._committed]

    def _update(
        self,
        env: DetectionEnvironment,
        t: int,
        frame: Frame,
        batch: EvaluationBatch,
    ) -> None:
        if t <= self.delta:
            for key, est_score in batch.observations():
                self._stats.record(key, est_score)


class MESA(MES):
    """MES-A: the Figure 8 ablation — no subset piggyback evaluation.

    Only the selected ensemble's score is observed each iteration, so the
    bandit needs far more pulls to rank the lattice and loses score across
    every dataset, demonstrating the value of Alg. 1 lines 9–10.
    """

    name = "MES-A"

    def __init__(self, gamma: int = 5) -> None:
        super().__init__(gamma=gamma, evaluate_subsets=False)
