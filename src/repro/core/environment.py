"""The detection environment: detectors x frames x REF, with cost metering.

:class:`DetectionEnvironment` is the runtime every selection algorithm runs
against.  It owns the detector pool ``M``, the reference model REF, the
fusion method, the scoring function, and a simulated clock, and exposes one
operation — :meth:`DetectionEnvironment.evaluate` — that applies an
arbitrary set of ensembles to a frame while charging costs exactly as the
paper's Eq. (12)/(14) prescribe:

* each member detector is inferred (and billed) **once** per frame no
  matter how many evaluated ensembles contain it — single-model outputs are
  materialized and reused;
* each evaluated ensemble pays only its fusion cost ``c^e``;
* the reference model is inferred (and billed) once per processed frame.

Evaluations report both the *estimated* score (AP against REF — what the
algorithms may see, Eq. 3) and the *true* score (AP against ground truth —
what the experiments report, Eq. 2).  :meth:`DetectionEnvironment.peek`
is the uncharged view that reports the true score only, and
:meth:`DetectionEnvironment.peek_best` is the oracle's: the true-score
argmax, found without fusing ensembles whose score cannot win.

Each evaluation reads its frame's inputs once: every member's output and
REF's output come from one batched store read plus the frame's own
inference jobs, and the ground truth is built at most once.  The
algorithms observe the estimated AP, so :meth:`DetectionEnvironment.evaluate`
reads it for every ensemble; an ensemble's true AP and true score are
computed only when something reads them (a selection run reads them
for the evaluation that serves the frame).  Its fused boxes are
produced only when something reads them too: an AP the store does not
hold, or a caller of :attr:`EnsembleEvaluation.detections`.  Fusion is
billed either way.  The ensembles fused for one evaluation share one
:class:`~repro.ensembling.base.FusionScope`, which goes with the frame's
inputs: WBF orders the frame's pooled boxes, tests each overlap and
averages each cluster once for all of them.

Execution is layered on the :mod:`repro.engine` package:

* the union-of-member inferences (and REF) of one frame run as one batch
  through an :class:`~repro.engine.backends.ExecutionBackend`: the
  :class:`~repro.engine.backends.SerialBackend`, or a
  :class:`~repro.engine.resilience.ResilientBackend` around it that
  retries, times out and circuit-breaks failing detectors.
* results are memoized in a bounded, LRU-evicting, thread-safe
  :class:`~repro.engine.store.EvaluationStore`.  Store keys carry a
  *context tag* naming everything the cached value depends on beyond the
  frame — the producing detector, the fusion method and its parameters,
  the reference model, the IoU threshold — so a store (and any persistent
  tier attached to it) can safely be shared across environments with
  *different* configurations: entries from different contexts never
  collide, and because simulated detectors are deterministic per frame a
  hit is always bit-identical to a recompute.  Sharing a store via the
  ``store`` parameter makes multi-algorithm experiments several times
  faster without changing any result; attaching a persistent tier (see
  :class:`~repro.query.matstore.MaterializedDetectionStore`) extends the
  same reuse across queries and across processes.

Billing follows Eq. 12/14: the union members' simulated inference
times add up.

Execution is also allowed to *fail*: backends report per-job statuses
instead of raising, and :meth:`DetectionEnvironment.evaluate` degrades
gracefully when members are down — each requested ensemble is *realized*
as its healthy subset (fusion recomputed over the surviving members,
billed accordingly), requested ensembles with no healthy member are
dropped, and a frame with nothing left to score raises
:class:`FrameEvaluationError` for the selection loop
(:class:`~repro.core.selection.IterativeSelection`) to abandon.
Fault-free runs are bit-for-bit unaffected: every realized ensemble
equals its requested one and all charges are identical.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Any, Generic, TypeVar

from repro.core.ensembles import EnsembleKey, enumerate_ensembles, make_key
from repro.core.scoring import ScoringFunction, WeightedLogScore
from repro.detection.metrics import mean_average_precision
from repro.detection.types import Detection, FrameDetections
from repro.engine.backends import (
    ExecutionBackend,
    InferenceJob,
    JobResult,
    SerialBackend,
)
from repro.engine.resilience import FaultStats
from repro.engine.store import CacheStats, EvaluationStore
from repro.ensembling.base import EnsembleMethod, FusionScope
from repro.ensembling.wbf import WeightedBoxesFusion
from repro.obs import NULL_OBS, Observability
from repro.simulation.clock import (
    OVERHEAD_PER_ENSEMBLE_MS,
    SimulatedClock,
    c_max_ms,
    ensembling_cost_ms,
)
from repro.simulation.video import Frame

__all__ = [
    "method_tag",
    "EnsembleEvaluation",
    "EvaluationBatch",
    "EvaluationStore",
    "CacheStats",
    "FaultStats",
    "FrameEvaluationError",
    "DetectionEnvironment",
]


class FrameEvaluationError(RuntimeError):
    """A frame produced no usable evaluation (REF or all members failed).

    Raised by :meth:`DetectionEnvironment.evaluate` (and the uncharged
    views) when fault injection leaves nothing to score; the frame loop
    of :class:`~repro.core.selection.IterativeSelection` catches it,
    abandons the frame and moves on.
    """


def method_tag(method: object) -> str:
    """A deterministic identity string for a fusion/scoring method.

    Combines the method's declared ``name`` (or class name) with its
    scalar constructor state, so two instances configured identically get
    the same tag and differently configured ones never share cache keys.
    """
    name = getattr(method, "name", None) or type(method).__name__
    try:
        state = vars(method)
    except TypeError:
        state = {}
    params = ",".join(
        f"{key}={value!r}"
        for key, value in sorted(state.items())
        if isinstance(value, (bool, int, float, str))
    )
    return f"{name}({params})"


_T = TypeVar("_T")


class _Lazy(Generic[_T]):
    """A part of an evaluation, produced at its first read.

    ``compute`` (a read of one store stage: ``fused`` for the boxes,
    ``true_ap`` for the true AP and score) runs at the first :meth:`get`
    and never again; it never returns ``None``.  Two holders compare and
    hash by their values.
    """

    __slots__ = ("_compute", "_value")

    def __init__(self, compute: Callable[[], _T]) -> None:
        self._compute = compute
        self._value: _T | None = None

    def get(self) -> _T:
        if self._value is None:
            self._value = self._compute()
        return self._value

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _Lazy):
            return NotImplemented
        return self.get() == other.get()

    def __hash__(self) -> int:
        return hash(self.get())


@dataclass(frozen=True)
class EnsembleEvaluation:
    """Everything known about applying one ensemble to one frame.

    Attributes:
        key: The ensemble.
        inference_ms: Sum of member inference times (as if ``S`` ran alone).
        ensembling_ms: Fusion cost ``c^e_{S|v}``.
        cost_ms: ``c_{S|v}`` per Eq. (1).
        normalized_cost: ``c_hat_{S|v} = c_{S|v} / c_max``, clipped to
            ``[0, 1]``.
        est_ap: AP against the reference model (Eq. 3); 0.0 when not
            estimated (from :meth:`DetectionEnvironment.peek` or
            :meth:`DetectionEnvironment.peek_best`, or in an environment
            without a reference model).
        est_score: Score from estimated AP — what the bandit observes;
            0.0 whenever ``est_ap`` is not estimated.
        realized: The healthy subset that actually ran.  Empty (the
            default) means the full requested ensemble ran; when members
            failed, every detection/cost/score field describes this
            subset instead of ``key``.

    :attr:`detections` are fused when first read (by an AP the store
    misses, or by a caller), and :attr:`true_ap` and :attr:`true_score`
    are computed when either is first read; each at most once per
    evaluation.  Equality and hashing compare them too.
    """

    key: EnsembleKey
    _boxes: _Lazy[FrameDetections] = field(repr=False)
    inference_ms: float
    ensembling_ms: float
    cost_ms: float
    normalized_cost: float
    est_ap: float
    est_score: float
    _true: _Lazy[tuple[float, float]] = field(repr=False)
    realized: EnsembleKey = ()

    @property
    def detections(self) -> FrameDetections:
        """Fused detection output ``D_{S|v}``."""
        return self._boxes.get()

    @property
    def true_ap(self) -> float:
        """AP against ground truth (Eq. 2)."""
        return self._true.get()[0]

    @property
    def true_score(self) -> float:
        """Score from true AP — what experiments report."""
        return self._true.get()[1]

    @property
    def realized_key(self) -> EnsembleKey:
        """The ensemble whose output this evaluation describes."""
        return self.realized if self.realized else self.key

    @property
    def degraded(self) -> bool:
        """True when faults forced a proper subset of the request."""
        return bool(self.realized) and self.realized != self.key


@dataclass(frozen=True)
class EvaluationBatch:
    """Result of evaluating a set of ensembles on one frame.

    Attributes:
        evaluations: Per-ensemble evaluations.
        detector_ms: Billable detector time this batch: the summed
            inference time of the union of member models (Eq. 12/14).
        ensembling_ms: Billable fusion time this batch (every evaluated
            ensemble).
        reference_ms: REF inference time incurred by this batch (zero if
            this frame's REF output was already paid for).
        failed_models: Union members that produced no output this frame
            (job failed, timed out, or was skipped by an open circuit).
        ensembles_dropped: Requested ensembles with no healthy member,
            absent from ``evaluations``.
    """

    evaluations: dict[EnsembleKey, EnsembleEvaluation]
    detector_ms: float
    ensembling_ms: float
    reference_ms: float
    failed_models: tuple[str, ...] = ()
    ensembles_dropped: int = 0

    @property
    def billable_ms(self) -> float:
        """Time counted against a TCVI budget for this iteration."""
        return self.detector_ms + self.ensembling_ms

    @property
    def degraded(self) -> bool:
        """True when any union member failed this frame."""
        return bool(self.failed_models)

    def serving(self, selected: EnsembleKey) -> EnsembleEvaluation:
        """The evaluation that serves a frame whose selection was ``selected``.

        ``selected``'s own evaluation, realized subset included.  When the
        selection itself realized empty (no healthy member), the best
        healthy evaluation of the batch, with a deterministic tie-break
        on the key.
        """
        chosen = self.evaluations.get(selected)
        if chosen is None:
            chosen = max(
                self.evaluations.values(), key=lambda e: (e.est_score, e.key)
            )
        return chosen

    def observations(self) -> Iterator[tuple[EnsembleKey, float]]:
        """``(ensemble, est_score)`` pairs — what a bandit observes.

        Observations are keyed by the *realized* ensemble — the subset
        that actually produced the score — and deduplicated, so under
        degradation the bandit credits the arm that ran rather than the
        arm it asked for.  Fault-free, realized equals requested and
        this yields exactly one pair per evaluation, as before.
        """
        seen: set[EnsembleKey] = set()
        for evaluation in self.evaluations.values():
            realized = evaluation.realized_key
            if realized in seen:
                continue
            seen.add(realized)
            yield realized, evaluation.est_score


@dataclass
class _FrameInputs:
    """One frame's inputs to fusion and scoring, each read at most once.

    Attributes:
        frame: The frame.
        outputs: Member name -> its output on this frame.  Members whose
            inference failed this frame are absent.
        reference: REF's output on this frame; ``None`` when REF failed
            or the environment has no reference model.
    """

    frame: Frame
    outputs: dict[str, Any]
    reference: Any

    @cached_property
    def ground_truth(self) -> list[Detection]:
        """The frame's ground truth as detections, built on first use."""
        return self.frame.ground_truth_detections()

    @cached_property
    def fusion_scope(self) -> FusionScope:
        """The scope every fusion of this frame evaluation shares.

        Its parts are the members' outputs in sorted name order, the order
        of every ensemble key, so each ensemble's outputs are a
        subsequence of them.  Built at the first fusion; it goes with
        these inputs.
        """
        return FusionScope(
            [self.outputs[model].detections for model in sorted(self.outputs)]
        )


@dataclass
class _Realization:
    """A frame's requested ensembles, realized against its inputs.

    Attributes:
        inputs: The frame's inputs, read once over the union.
        union_models: Sorted union of the requested ensembles' members.
        failed_models: Union members with no output this frame.
        realized_of: Requested key -> the healthy subset that runs, in
            request order; requested keys with no healthy member are
            absent.
        dropped: How many requested keys had no healthy member.
    """

    inputs: _FrameInputs
    union_models: list[str]
    failed_models: tuple[str, ...]
    realized_of: dict[EnsembleKey, EnsembleKey]
    dropped: int


class DetectionEnvironment:
    """Runtime for ensemble selection over a detector pool.

    Args:
        detectors: The pool ``M``; each needs ``.name``, ``.detect(frame)``
            and ``.expected_time_ms`` (both :class:`SimulatedDetector` and
            :class:`SimulatedLidar` qualify, as does any user detector with
            the same surface).
        reference: The REF model used for AP estimation, or ``None`` to
            skip REF-based score estimation entirely: no reference model
            is inferred (or billed), every evaluation reports
            ``est_ap = est_score = 0.0``, and :attr:`score_estimates` is
            False.  Only valid for selection algorithms that never
            consult estimated scores (``needs_reference`` is False — BF,
            RAND, OPT, SGL); the query planner's projection-pruning
            rewrite uses this for queries that never read ``score``.
            True-AP reporting is unaffected.
        scoring: The scoring function ``SC``; defaults to Eq. (30) with
            ``w1 = w2 = 0.5``.
        fusion: Box-fusion method; defaults to WBF as in the paper.
        store: Optional shared :class:`EvaluationStore` (a private one by
            default).
        backend: Execution backend for inference jobs; defaults to
            :class:`~repro.engine.backends.SerialBackend`.
        obs: Observability facade shared by the selection loop and
            this environment; spans (detect / per-model / fuse / score)
            and evaluation counters flow through it.  The default no-op
            facade keeps uninstrumented runs zero-cost.

    Every environment bills a fresh :class:`SimulatedClock` with the cost
    model of :mod:`repro.simulation.clock`.
    """

    #: IoU threshold of every AP the environment computes (VOC's 0.5).
    iou_threshold: float = 0.5

    def __init__(
        self,
        detectors: Sequence[object],
        reference: object | None,
        scoring: ScoringFunction | None = None,
        fusion: EnsembleMethod | None = None,
        store: EvaluationStore | None = None,
        backend: ExecutionBackend | None = None,
        obs: Observability = NULL_OBS,
    ) -> None:
        if not detectors:
            raise ValueError("the detector pool must be non-empty")
        names = [d.name for d in detectors]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate detector names: {names}")
        self._detectors: dict[str, object] = {d.name: d for d in detectors}
        self.reference = reference
        self.scoring: ScoringFunction = (
            scoring if scoring is not None else WeightedLogScore(0.5)
        )
        self.fusion: EnsembleMethod = (
            fusion if fusion is not None else WeightedBoxesFusion()
        )
        self.store: EvaluationStore = (
            store if store is not None else EvaluationStore()
        )
        self.clock = SimulatedClock()
        self.backend: ExecutionBackend = (
            backend if backend is not None else SerialBackend()
        )
        #: Whether evaluations estimate AP against the reference model.
        self.score_estimates = reference is not None
        self.obs = obs

        # Context tags appended to store keys: everything a cached value
        # depends on beyond the frame, so heterogeneous environments (and
        # persistent tiers shared across runs) never collide on a key.
        self._fusion_tag = method_tag(self.fusion)
        self._true_tag = f"{self._fusion_tag}|iou={self.iou_threshold:g}"
        if reference is not None:
            self._ref_name = str(getattr(reference, "name", "ref"))
            self._est_tag = f"{self._true_tag}|ref={self._ref_name}"
        else:
            self._ref_name = None
            self._est_tag = None

        # Frame-level degradation counters (bounded scalars, merged with
        # the backend's job-level counters by :meth:`fault_stats`).
        self._frames_degraded = 0
        self._frames_abandoned = 0
        self._ensembles_dropped = 0

        self.model_names: tuple[str, ...] = tuple(sorted(names))
        self.full_ensemble: EnsembleKey = make_key(names)
        self.all_ensembles: list[EnsembleKey] = enumerate_ensembles(names)

        expected_full = sum(d.expected_time_ms for d in detectors)
        self.c_max_ms = c_max_ms(expected_full)

    @property
    def num_models(self) -> int:
        return len(self.model_names)

    def detector(self, name: str) -> object:
        try:
            return self._detectors[name]
        except KeyError:
            raise KeyError(
                f"unknown detector {name!r}; pool: {list(self.model_names)}"
            ) from None

    def normalized_cost(self, cost_ms: float) -> float:
        """``c_hat`` — cost as a fraction of ``c_max``, clipped to [0, 1]."""
        if cost_ms < 0:
            raise ValueError("cost_ms must be non-negative")
        return min(cost_ms / self.c_max_ms, 1.0)

    # ---- fault-tolerance surface ---------------------------------------

    def unavailable_detectors(self) -> frozenset[str]:
        """Pool members whose circuit is currently open.

        Empty unless the backend is a
        :class:`~repro.engine.resilience.ResilientBackend` with open
        circuits; half-open circuits are not reported (their next job is
        the probe that may heal them).
        """
        open_detectors = getattr(self.backend, "open_detectors", None)
        if open_detectors is None:
            return frozenset()
        return frozenset(open_detectors()) & frozenset(self.model_names)

    def available_ensembles(self) -> list[EnsembleKey]:
        """Ensembles with no known-unavailable member.

        The drop-in replacement for :attr:`all_ensembles` in selection
        loops: algorithms mask arms containing open-circuit detectors and
        spend their pulls on ensembles that can actually run.  Fails
        open — if *every* detector is down, the full list is returned so
        the frame loop still probes (and abandons) rather than deadlocks.
        """
        down = self.unavailable_detectors()
        if not down:
            return list(self.all_ensembles)
        healthy = [
            key for key in self.all_ensembles if not down.intersection(key)
        ]
        return healthy if healthy else list(self.all_ensembles)

    def note_frame_degraded(self) -> None:
        """Record one frame whose realized ensemble shrank (frame-loop use)."""
        self._frames_degraded += 1

    def note_frame_abandoned(self) -> None:
        """Record one frame that yielded no evaluation (frame-loop use)."""
        self._frames_abandoned += 1

    def fault_stats(self) -> FaultStats:
        """Job-level backend counters merged with frame-level degradation.

        Works with any backend: non-resilient backends contribute zero
        job-level counters.
        """
        stats_fn = getattr(self.backend, "stats", None)
        base = stats_fn() if callable(stats_fn) else None
        if not isinstance(base, FaultStats):
            base = FaultStats()
        return replace(
            base,
            frames_degraded=self._frames_degraded,
            frames_abandoned=self._frames_abandoned,
            ensembles_dropped=self._ensembles_dropped,
        )

    # ---- inference ------------------------------------------------------

    def _jobs(
        self, frame: Frame, models: Sequence[str], with_reference: bool
    ) -> tuple[list[InferenceJob], list[tuple[str, tuple[str, str]]]]:
        """The inference jobs of ``models`` on ``frame``, then REF's.

        REF's job is added when ``with_reference`` is set and the
        environment has a reference model.  Each job is paired with the
        store stage and key its output goes under.
        """
        jobs = [InferenceJob(self._detectors[model], frame) for model in models]
        stages = [("detector", (frame.key, model)) for model in models]
        if with_reference and self._ref_name is not None:
            jobs.append(InferenceJob(self.reference, frame))
            stages.append(("reference", (frame.key, self._ref_name)))
        return jobs, stages

    def _run_jobs(
        self,
        jobs: list[InferenceJob],
        stages: list[tuple[str, tuple[str, str]]],
    ) -> list[JobResult]:
        """Run jobs through the backend, storing the successful outputs.

        Unsuccessful jobs (failed, timed out, or skipped by an open
        circuit) leave no store entry, so the next frame that needs the
        model re-attempts it: failures are never negatively cached.
        """
        if self.obs.metrics_on:
            detector_jobs = sum(1 for stage, _ in stages if stage == "detector")
            if detector_jobs:
                self.obs.count(
                    "repro_detector_invocations_total",
                    float(detector_jobs),
                    description="Detector inferences actually executed "
                    "(store and materialized-tier hits excluded)",
                )
            if len(jobs) > detector_jobs:
                self.obs.count(
                    "repro_reference_invocations_total",
                    float(len(jobs) - detector_jobs),
                    description="Reference-model inferences actually executed",
                )
        with self.obs.span("detect", jobs=len(jobs)) as detect_span:
            results = self.backend.run(jobs)
            if self.obs.trace_on:
                sim_ms = 0.0
                for (stage, key), result in zip(stages, results, strict=True):
                    job_sim = (
                        float(getattr(result.output, "inference_time_ms", 0.0))
                        if result.ok
                        else 0.0
                    )
                    sim_ms += job_sim
                    self.obs.add_span(
                        "detect-model",
                        wall_ms=result.wall_ms,
                        sim_ms=job_sim,
                        status=result.status,
                        model=key[1] if stage == "detector" else "REF",
                        attempts=result.attempts,
                    )
                detect_span.set_sim_ms(sim_ms)
        for (stage, key), result in zip(stages, results, strict=True):
            if result.ok:
                self.store.put(stage, key, result.output, result.wall_ms)
        return results

    def _frame_inputs(self, frame: Frame, models: Sequence[str]) -> _FrameInputs:
        """Read the outputs of ``models`` and REF on ``frame``, once each.

        Stored outputs come from one batched
        :meth:`~repro.engine.store.EvaluationStore.get_many`.  The missing
        ones run as one backend batch, and their results are used
        directly as well as stored.  Outputs are deterministic per
        ``(model, frame)``, so everything downstream (billing, fusion,
        AP) is identical whatever the store held; wall clock is the only
        difference.
        """
        stored = self.store.get_many(
            "detector", [(frame.key, model) for model in models]
        )
        outputs: dict[str, Any] = {
            model: output
            for model, output in zip(models, stored, strict=True)
            if output is not None
        }
        reference = None
        if self._ref_name is not None:
            reference = self.store.get("reference", (frame.key, self._ref_name))
        jobs, stages = self._jobs(
            frame,
            [model for model in models if model not in outputs],
            reference is None,
        )
        if jobs:
            results = self._run_jobs(jobs, stages)
            for (stage, key), result in zip(stages, results, strict=True):
                if not result.ok:
                    continue
                if stage == "reference":
                    reference = result.output
                else:
                    outputs[key[1]] = result.output
        return _FrameInputs(frame, outputs, reference)

    def prefetch(self, frames: Iterable[Frame]) -> int:
        """Materialize many frames' outputs in one batched submission.

        Coalesces every missing ``(model, frame)`` inference of the pool
        (plus REF, when the environment has one) across ``frames`` into a
        single :meth:`~repro.engine.backends.ExecutionBackend.run` call.
        This is the batched pre-scan path: SGL's calibration pass uses it
        before peeking frames one at a time.  A
        :class:`~repro.engine.resilience.ResilientBackend` admits the
        whole batch on one breaker snapshot, so under faults its breaker
        transitions differ from a frame-by-frame pass.

        Results are bit-for-bit unaffected: outputs are deterministic per
        ``(model, frame)`` and land in the store exactly as on-demand
        materialization would put them, and billing reads the simulated
        times carried *inside* stored outputs, never the wall clock.
        Under fault injection a failed prefetched inference leaves no
        store entry and is simply re-attempted when the frame is
        evaluated, exactly like any other failed job.

        Membership is tested with the store's uncounted, batched
        :meth:`~repro.engine.store.EvaluationStore.contains_many` (one
        lock acquisition per frame), so prefetching moves no lookup
        statistic.

        Args:
            frames: Frames to materialize.

        Returns:
            The number of inference jobs actually executed.
        """
        jobs: list[InferenceJob] = []
        stages: list[tuple[str, tuple[str, str]]] = []
        for frame in frames:
            present = self.store.contains_many(
                "detector", [(frame.key, model) for model in self.model_names]
            )
            frame_jobs, frame_stages = self._jobs(
                frame,
                [
                    model
                    for model, has in zip(self.model_names, present, strict=True)
                    if not has
                ],
                self._ref_name is not None
                and not self.store.contains(
                    "reference", (frame.key, self._ref_name)
                ),
            )
            jobs.extend(frame_jobs)
            stages.extend(frame_stages)
        if not jobs:
            return 0
        self._run_jobs(jobs, stages)
        return len(jobs)

    # ---- memoized fusion and scoring -----------------------------------

    def _fused(self, inputs: _FrameInputs, key: EnsembleKey) -> FrameDetections:
        return self.store.get_or_compute(
            "fused",
            (inputs.frame.key, key, self._fusion_tag),
            lambda: self.fusion.fuse(
                [inputs.outputs[m].detections for m in key], inputs.fusion_scope
            ),
        )

    def _estimated_ap(
        self,
        inputs: _FrameInputs,
        key: EnsembleKey,
        boxes: _Lazy[FrameDetections],
    ) -> float:
        return self.store.get_or_compute(
            "est_ap",
            (inputs.frame.key, key, self._est_tag),
            lambda: mean_average_precision(
                boxes.get(), inputs.reference.detections, self.iou_threshold
            ),
        )

    def _true_scores(
        self,
        inputs: _FrameInputs,
        key: EnsembleKey,
        boxes: _Lazy[FrameDetections],
        c_hat: float,
    ) -> tuple[float, float]:
        """``(true_ap, true_score)``, the AP memoized in the store."""
        true_ap = self.store.get_or_compute(
            "true_ap",
            (inputs.frame.key, key, self._true_tag),
            lambda: mean_average_precision(
                boxes.get(), inputs.ground_truth, self.iou_threshold
            ),
        )
        return true_ap, self.scoring(true_ap, c_hat)

    # ---- evaluation -----------------------------------------------------

    def _realize(
        self, frame: Frame, keys: Iterable[EnsembleKey], charge: bool
    ) -> _Realization:
        """Canonicalize ``keys``, read the frame once and realize each key.

        Members without an output this frame are unhealthy; each requested
        ensemble realizes as its healthy subset.  Fault-free, every key
        realizes as itself.  ``charge`` counts the dropped keys in
        :meth:`fault_stats`.

        Raises:
            FrameEvaluationError: When REF failed (and estimates are on),
                or no requested ensemble has a healthy member.
        """
        key_list: list[EnsembleKey] = []
        seen: set[EnsembleKey] = set()
        for raw in keys:
            key = make_key(raw)
            for member in key:
                if member not in self._detectors:
                    raise KeyError(
                        f"ensemble {key} references unknown detector {member!r}"
                    )
            if key not in seen:
                seen.add(key)
                key_list.append(key)
        if not key_list:
            raise ValueError("evaluate() requires at least one ensemble")

        union_models = sorted({m for key in key_list for m in key})
        inputs = self._frame_inputs(frame, union_models)
        outputs = inputs.outputs
        failed_models = tuple(m for m in union_models if m not in outputs)

        if self.score_estimates and inputs.reference is None:
            raise FrameEvaluationError(
                f"reference inference failed for frame {frame.key!r}"
            )

        realized_of: dict[EnsembleKey, EnsembleKey] = {}
        dropped = 0
        for key in key_list:
            realized = (
                tuple(m for m in key if m in outputs) if failed_models else key
            )
            if realized:
                realized_of[key] = realized
            else:
                dropped += 1
        if charge:
            self._ensembles_dropped += dropped
        if not realized_of:
            raise FrameEvaluationError(
                f"no requested ensemble has a healthy member for frame "
                f"{frame.key!r} (failed: {list(failed_models)})"
            )
        return _Realization(
            inputs, union_models, failed_models, realized_of, dropped
        )

    def _cost_ms(
        self, inputs: _FrameInputs, realized: EnsembleKey
    ) -> tuple[float, float]:
        """``(inference_ms, fusion_ms)`` of a realized ensemble, pre-fusion.

        Inference is the members' summed time as if the ensemble ran
        alone; fusion is the cost model's charge for the pooled boxes.
        """
        members = [inputs.outputs[m] for m in realized]
        inference_ms = sum(o.inference_time_ms for o in members)
        pooled_boxes = sum(len(o.detections) for o in members)
        return inference_ms, ensembling_cost_ms(pooled_boxes)

    def _evaluation(
        self,
        inputs: _FrameInputs,
        key: EnsembleKey,
        realized: EnsembleKey,
        inference_ms: float,
        fusion_ms: float,
        estimate: bool,
    ) -> EnsembleEvaluation:
        """Score one realized ensemble (both APs memoized).

        The estimated AP is read now, when ``estimate`` is set.  The true
        AP is read from the store (or computed) only when the evaluation's
        :attr:`~EnsembleEvaluation.true_ap` or ``true_score`` is first
        read.  The fused detections are produced only if an AP misses the
        store or a caller reads them.
        """
        boxes = _Lazy(lambda: self._fused(inputs, realized))
        cost_ms = inference_ms + fusion_ms
        c_hat = self.normalized_cost(cost_ms)
        if estimate:
            est_ap = self._estimated_ap(inputs, realized, boxes)
            est_score = self.scoring(est_ap, c_hat)
        else:
            est_ap = 0.0
            est_score = 0.0
        return EnsembleEvaluation(
            key=key,
            _boxes=boxes,
            inference_ms=inference_ms,
            ensembling_ms=fusion_ms,
            cost_ms=cost_ms,
            normalized_cost=c_hat,
            est_ap=est_ap,
            est_score=est_score,
            _true=_Lazy(
                lambda: self._true_scores(inputs, realized, boxes, c_hat)
            ),
            realized=realized,
        )

    def peek(
        self, frame: Frame, keys: Iterable[EnsembleKey]
    ) -> EvaluationBatch:
        """The oracle's view: true scores, without consuming budget.

        Equal to ``evaluate(frame, keys, charge=False)`` except that the
        REF-estimated AP is never computed: every evaluation reports
        ``est_ap = est_score = 0.0``.  It serves callers that read only
        true scores of every requested ensemble (SGL's calibration); a
        caller that wants only the best one uses :meth:`peek_best`, and a
        caller that needs estimates uses ``evaluate(..., charge=False)``.
        As with :meth:`evaluate`, each true AP is computed when the
        caller first reads it.  REF is still inferred (if missing) and
        checked exactly as in :meth:`evaluate`, so a frame whose REF
        inference fails raises :class:`FrameEvaluationError` either way.
        """
        return self._evaluate(frame, keys, charge=False, estimate=False)

    def peek_best(
        self, frame: Frame, keys: Iterable[EnsembleKey]
    ) -> EnsembleEvaluation:
        """The true-score-best evaluation among ``keys``, uncharged.

        Returns exactly ``max(peek(frame, keys).evaluations.values(),
        key=lambda e: (e.true_score, e.key))`` — OPT's choice and
        :func:`~repro.core.regret.oracle_scores`' value — but fuses and
        scores only the ensembles that can still win.  A realized
        ensemble's cost is known before fusion, so ``scoring(1.0, c_hat)``
        bounds its true score (see :class:`ScoringFunction`).  Candidates
        are visited in descending ``(bound, key)`` order, and the search
        stops at the first whose ``(bound, key)`` is below the best
        ``(true_score, key)`` so far.

        The frame is read and realized as in :meth:`peek`, so inference
        jobs, fault streams and :class:`FrameEvaluationError` are the
        same; dropped keys are skipped.  Nothing is charged or counted,
        and no ``fuse``/``score`` span opens: the time sits in the
        caller's span.  Every fusion and true AP computed goes through
        the store.
        """
        realization = self._realize(frame, keys, charge=False)
        inputs = realization.inputs
        candidates: list[
            tuple[float, EnsembleKey, EnsembleKey, float, float]
        ] = []
        for key, realized in realization.realized_of.items():
            inference_ms, fusion_ms = self._cost_ms(inputs, realized)
            c_hat = self.normalized_cost(inference_ms + fusion_ms)
            bound = self.scoring(1.0, c_hat)
            candidates.append((bound, key, realized, inference_ms, fusion_ms))
        candidates.sort(key=lambda c: (c[0], c[1]), reverse=True)
        best: EnsembleEvaluation | None = None
        for bound, key, realized, inference_ms, fusion_ms in candidates:
            if best is not None and (bound, key) < (best.true_score, best.key):
                break
            evaluation = self._evaluation(
                inputs, key, realized, inference_ms, fusion_ms, estimate=False
            )
            if best is None or (evaluation.true_score, key) > (
                best.true_score,
                best.key,
            ):
                best = evaluation
        assert best is not None  # _realize leaves at least one candidate
        return best

    def evaluate(
        self,
        frame: Frame,
        keys: Iterable[EnsembleKey],
        charge: bool = True,
    ) -> EvaluationBatch:
        """Apply a set of ensembles to a frame.

        Each union member's output and REF's output are read once per
        call: from the store, or from this frame's inference jobs.  A
        member is healthy when this frame has an output for it, so store
        eviction never changes a result.  Both APs are memoized in the
        store, and so are the fused detections.  The estimated AP is read
        here; the true AP only when an evaluation's ``true_ap`` or
        ``true_score`` is first read; the fused detections only when an
        AP misses or a caller reads them.

        Args:
            frame: The frame to process.
            keys: Ensembles to evaluate; member names must be in the pool.
                Duplicates are collapsed.
            charge: If True, bill the clock for union-of-member detector
                inference (summed, Eq. 12/14), per-ensemble fusion, and
                (once per frame) REF inference.  Pass False
                for uncharged evaluations that still need estimated
                scores; :meth:`peek` is the cheaper true-score-only view.

        Returns:
            The per-ensemble evaluations plus this batch's cost components.

        Raises:
            FrameEvaluationError: When nothing can be scored — the
                reference inference failed, or no requested ensemble has
                a single healthy member.  The selection loop catches this
                and abandons the frame.
        """
        return self._evaluate(
            frame, keys, charge=charge, estimate=self.score_estimates
        )

    def _evaluate(
        self,
        frame: Frame,
        keys: Iterable[EnsembleKey],
        charge: bool,
        estimate: bool,
    ) -> EvaluationBatch:
        realization = self._realize(frame, keys, charge)
        inputs = realization.inputs
        outputs = inputs.outputs

        detector_ms = sum(
            outputs[model].inference_time_ms
            for model in realization.union_models
            if model in outputs
        )

        reference_ms = 0.0
        if self.score_estimates and charge:
            ref_ms = inputs.reference.inference_time_ms
            if self.clock.charge_once("reference", frame.key, ref_ms):
                reference_ms = ref_ms

        # Pass 1 ("fuse"): every realized ensemble's cost components and
        # the batch's billed fusion cost.  Pass 2 ("score"): estimated
        # APs and scores, fusing only the ensembles whose estimates miss
        # the store (true APs wait for their first read).  The split
        # exists so the two phases are separately spanned.
        evaluations: dict[EnsembleKey, EnsembleEvaluation] = {}
        ensembling_ms = 0.0
        fusions_billed: set[EnsembleKey] = set()
        prepared: list[tuple[EnsembleKey, EnsembleKey, float, float]] = []
        with self.obs.span("fuse") as fuse_span:
            for key, realized in realization.realized_of.items():
                inference_ms, fusion_ms = self._cost_ms(inputs, realized)
                if realized not in fusions_billed:
                    # Distinct requested ensembles can collapse onto one
                    # realized subset; its fusion bills once.
                    fusions_billed.add(realized)
                    ensembling_ms += fusion_ms
                prepared.append((key, realized, inference_ms, fusion_ms))
            fuse_span.set_sim_ms(ensembling_ms)
        with self.obs.span("score"):
            for key, realized, inference_ms, fusion_ms in prepared:
                evaluations[key] = self._evaluation(
                    inputs, key, realized, inference_ms, fusion_ms, estimate
                )

        if charge:
            self.clock.charge("detector", detector_ms)
            self.clock.charge("ensembling", ensembling_ms)
            if self.obs.metrics_on:
                self.obs.count(
                    "repro_evaluations_total",
                    float(len(evaluations)),
                    description="Charged ensemble evaluations",
                )
                if realization.dropped:
                    self.obs.count(
                        "repro_ensembles_dropped_total",
                        float(realization.dropped),
                        description="Requested ensembles with no healthy member",
                    )

        return EvaluationBatch(
            evaluations=evaluations,
            detector_ms=detector_ms,
            ensembling_ms=ensembling_ms,
            reference_ms=reference_ms,
            failed_models=realization.failed_models,
            ensembles_dropped=realization.dropped,
        )

    def charge_overhead(self, num_candidates: int) -> None:
        """Bill selection bookkeeping (UCB computation etc.) to the clock."""
        if num_candidates < 0:
            raise ValueError("num_candidates must be non-negative")
        self.clock.charge(
            "overhead",
            OVERHEAD_PER_ENSEMBLE_MS * num_candidates,
        )
