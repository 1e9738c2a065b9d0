"""Selection-algorithm framework: records, results, and the frame loop.

All algorithms — MES, MES-B, SW-MES and every baseline — share the same
iterative structure: per frame, choose an ensemble (and possibly extra
ensembles to piggyback-evaluate), apply them through the environment, and
update internal state.  That frame loop is written once, in
:class:`IterativeSelection`; each algorithm only supplies its ``_choose``
and ``_update`` hooks, and every consumer (the multi-trial harness, the
query engine's physical plan) drives the loop through ``run`` or
``run_stream``.

Per iteration the loop:

1. guards the TCVI budget (Alg. 2 line 6: iteration ``t`` starts only
   while cumulative billable cost is ``<= B``; the final iteration may
   overshoot, the next never starts);
2. asks the algorithm to *choose* the selected ensemble plus the full
   evaluation list (piggyback subsets included);
3. bills selection overhead and *evaluates* the batch through the
   environment (union-of-member inference, Eq. 12/14 billing);
4. lets the algorithm *observe* the batch (its ``_update`` hook) and
   notifies any registered observers (e.g. the query engine capturing
   fused detections for row materialization);
5. yields the :class:`FrameRecord`.

Under fault injection an evaluation can *degrade*: failed members drop
out and the environment realizes each requested ensemble as its best
healthy subset.  The loop then records both the selected and the
realized ensemble.  A frame with no usable evaluation at all (REF down,
or every member of every requested ensemble failed) raises
:class:`~repro.core.environment.FrameEvaluationError` inside the
environment; the loop *abandons* that frame — counts it, yields no
record — and continues with the next one instead of aborting the run.
"""

from __future__ import annotations

import abc
import math
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass

from repro.core.ensembles import EnsembleKey
from repro.core.environment import (
    DetectionEnvironment,
    EvaluationBatch,
    FrameEvaluationError,
)
from repro.simulation.video import Frame

__all__ = [
    "FrameRecord",
    "FrameObserver",
    "SelectionResult",
    "SelectionAlgorithm",
    "IterativeSelection",
]


@dataclass(frozen=True)
class FrameRecord:
    """Outcome of one iteration (one processed frame).

    Attributes:
        iteration: 1-based iteration number ``t``: the frame's position
            in the sequence the run was given, so an abandoned frame
            leaves a gap in the numbering.
        frame_index: Index of the processed frame in its video.
        selected: The ensemble chosen for this frame.
        est_score / est_ap: Estimated (REF-based) score and AP of the
            selected ensemble — what the algorithm observed.
        true_score / true_ap: Ground-truth score and AP — what experiments
            report (``r`` in the paper's ``s_sum``).
        cost_ms: ``c_{S|v}`` of the selected ensemble (its own cost, as
            scored).
        normalized_cost: ``c_hat`` of the selected ensemble.
        charged_ms: Billable time actually spent this iteration (includes
            piggyback subset fusions; Eq. 12/14).
        realized: The ensemble that actually ran.  ``None`` (the default,
            and the value on every fault-free run) means the selected
            ensemble ran as requested; under fault injection it is the
            healthy subset the frame fell back to, and all score/cost
            fields describe *it*.
    """

    iteration: int
    frame_index: int
    selected: EnsembleKey
    est_score: float
    est_ap: float
    true_score: float
    true_ap: float
    cost_ms: float
    normalized_cost: float
    charged_ms: float
    realized: EnsembleKey | None = None

    @property
    def realized_key(self) -> EnsembleKey:
        """The ensemble whose output this record describes."""
        return self.realized if self.realized is not None else self.selected

    @property
    def degraded(self) -> bool:
        """True when faults forced a proper subset of the selection."""
        return self.realized is not None and self.realized != self.selected


#: Callback fired after each processed frame, before the record is yielded.
FrameObserver = Callable[[Frame, EvaluationBatch, FrameRecord], None]


def _check_budget(budget_ms: float | None) -> None:
    # The comparison also rejects NaN, which no budget guard could stop.
    if budget_ms is not None and not 0.0 < budget_ms < math.inf:
        raise ValueError(
            f"budget_ms must be positive and finite when given, got {budget_ms!r}"
        )


@dataclass
class SelectionResult:
    """The full trace of one algorithm run.

    Attributes:
        algorithm: The algorithm's name.
        records: Per-iteration records, in order.
        budget_ms: The budget the run was given (None for TUVI).
    """

    algorithm: str
    records: list[FrameRecord]
    budget_ms: float | None = None

    @property
    def frames_processed(self) -> int:
        """``|V_B|`` under a budget, ``|V|`` otherwise."""
        return len(self.records)

    @property
    def s_sum(self) -> float:
        """Sum of true scores of selected ensembles (Section 5.5)."""
        return sum(r.true_score for r in self.records)

    @property
    def s_sum_estimated(self) -> float:
        """Sum of REF-estimated scores (what the algorithm maximized)."""
        return sum(r.est_score for r in self.records)

    @property
    def frames_degraded(self) -> int:
        """Frames where faults forced a subset of the selected ensemble."""
        return sum(1 for r in self.records if r.degraded)

    @property
    def mean_true_ap(self) -> float:
        """``a_bar`` — average true AP of selected ensembles."""
        if not self.records:
            return 0.0
        return sum(r.true_ap for r in self.records) / len(self.records)

    @property
    def mean_normalized_cost(self) -> float:
        """``c_hat`` averaged over iterations (``1 - c_hat`` is reported)."""
        if not self.records:
            return 0.0
        return sum(r.normalized_cost for r in self.records) / len(self.records)

    @property
    def total_charged_ms(self) -> float:
        """Total billable time ``C`` consumed by the run."""
        return sum(r.charged_ms for r in self.records)

    def selection_counts(self) -> dict[EnsembleKey, int]:
        """How many times each ensemble was selected (Figure 10)."""
        counts: dict[EnsembleKey, int] = {}
        for record in self.records:
            counts[record.selected] = counts.get(record.selected, 0) + 1
        return counts

    def cumulative_cost_points(self) -> list[tuple[int, float]]:
        """``(t, C_t)`` pairs — the LRBP regression input (Section 3.2)."""
        points: list[tuple[int, float]] = []
        total = 0.0
        for record in self.records:
            total += record.charged_ms
            points.append((record.iteration, total))
        return points


class SelectionAlgorithm(abc.ABC):
    """Interface of an ensemble-selection strategy."""

    #: Display name; subclasses override.
    name: str = "abstract"

    #: Whether the algorithm consults REF-estimated scores.  Algorithms
    #: that never read ``est_score`` / ``est_ap`` (BF, RAND, OPT, SGL)
    #: override this to False, which lets the query planner's
    #: projection-pruning rewrite run them in an environment without a
    #: reference model — none inferred or billed.
    needs_reference: bool = True

    @abc.abstractmethod
    def run(
        self,
        env: DetectionEnvironment,
        frames: Sequence[Frame],
        budget_ms: float | None = None,
        observers: Sequence[FrameObserver] = (),
    ) -> SelectionResult:
        """Process frames, selecting one ensemble per frame.

        Args:
            env: The detection environment (a fresh clock per run is the
                caller's responsibility when clock readings matter).
            frames: The frame sequence ``V``.
            budget_ms: Optional TCVI budget ``B``; processing stops once
                cumulative billable time exceeds it.
            observers: Per-frame callbacks ``(frame, batch, record)`` fired
                for each processed frame (e.g. row materialization in the
                query engine's physical plan).
        """


class IterativeSelection(SelectionAlgorithm):
    """Template for per-frame selection algorithms, and the one frame loop.

    Subclasses implement:

    * :meth:`_begin` — optional pre-run setup (may inspect ``frames``);
    * :meth:`_choose` — pick the selected ensemble and the full list of
      ensembles to evaluate this iteration;
    * :meth:`_update` — fold the evaluation batch into internal state.

    :meth:`run` and :meth:`run_stream` drive the hooks through the same
    loop (see the module docstring).
    """

    def _begin(
        self, env: DetectionEnvironment, frames: Sequence[Frame]
    ) -> None:
        """Hook: called once before iteration starts."""

    @abc.abstractmethod
    def _choose(
        self, env: DetectionEnvironment, t: int, frame: Frame
    ) -> tuple[EnsembleKey, list[EnsembleKey]]:
        """Hook: return ``(selected, ensembles_to_evaluate)`` for iteration t.

        ``ensembles_to_evaluate`` must contain ``selected``.
        """

    def _update(
        self,
        env: DetectionEnvironment,
        t: int,
        frame: Frame,
        batch: EvaluationBatch,
    ) -> None:
        """Hook: consume the evaluation batch (default: no state)."""

    #: Whether the algorithm can process an unbounded frame stream.
    #: Algorithms that pre-scan the video (e.g. SGL's calibration pass)
    #: override this to False.
    supports_streaming: bool = True

    def run_stream(
        self,
        env: DetectionEnvironment,
        frames: Iterable[Frame],
        budget_ms: float | None = None,
        observers: Sequence[FrameObserver] = (),
    ) -> Iterator[FrameRecord]:
        """Process frames lazily, yielding one record per iteration.

        Works on unbounded streams (any iterable of frames).  The
        iteration stops when the stream ends or the budget is exhausted.

        Raises:
            TypeError: If the algorithm requires a full pre-scan
                (``supports_streaming`` is False).
            ValueError: If ``budget_ms`` is given and not positive.
        """
        if not self.supports_streaming:
            raise TypeError(
                f"{self.name} pre-scans the video and cannot run on a stream"
            )
        _check_budget(budget_ms)
        self._begin(env, ())
        return self._frames(env, frames, budget_ms, tuple(observers))

    def run(
        self,
        env: DetectionEnvironment,
        frames: Sequence[Frame],
        budget_ms: float | None = None,
        observers: Sequence[FrameObserver] = (),
    ) -> SelectionResult:
        _check_budget(budget_ms)
        self._begin(env, frames)
        records = list(self._frames(env, frames, budget_ms, tuple(observers)))
        result = SelectionResult(
            algorithm=self.name, records=records, budget_ms=budget_ms
        )
        env.obs.set_gauge(
            "repro_run_s_sum",
            result.s_sum,
            description="Final s_sum (sum of true scores) of the run",
            algorithm=self.name,
        )
        return result

    def _frames(
        self,
        env: DetectionEnvironment,
        frames: Iterable[Frame],
        budget_ms: float | None,
        observers: tuple[FrameObserver, ...],
    ) -> Iterator[FrameRecord]:
        """The frame loop: one record per processed frame, lazily.

        Raises:
            RuntimeError: If ``_choose`` returns a selected ensemble that
                is missing from its own evaluation list.
        """
        obs = env.obs
        label = self.name
        spent_ms = 0.0
        frames_done = 0
        for t, frame in enumerate(frames, start=1):
            if budget_ms is not None and spent_ms > budget_ms:
                break
            with obs.span(
                "frame",
                algorithm=label,
                iteration=t,
                frame_index=frame.index,
            ) as frame_span:
                try:
                    # _choose() is inside the guard too: oracle-style hooks
                    # peek through the environment and can hit the same
                    # failures as the charged evaluation below.
                    with obs.span("select"):
                        selected, eval_keys = self._choose(env, t, frame)
                        if selected not in eval_keys:
                            raise RuntimeError(
                                f"{label}: selected ensemble {selected} "
                                "missing from its evaluation list"
                            )
                        env.charge_overhead(len(eval_keys))
                    batch = env.evaluate(frame, eval_keys, charge=True)
                except FrameEvaluationError:
                    # Nothing usable came back (REF down or every member of
                    # every requested ensemble failed): abandon this frame,
                    # keep the run alive.  Failed inferences produce no
                    # simulated output, hence nothing billable.
                    env.note_frame_abandoned()
                    frame_span.set_status("abandoned")
                    if obs.metrics_on:
                        obs.count(
                            "repro_frames_abandoned_total",
                            description="Frames with no usable evaluation",
                            algorithm=label,
                        )
                        obs.event(
                            "degradation",
                            algorithm=label,
                            iteration=t,
                            frame_index=frame.index,
                            kind="abandoned",
                            selected=None,
                            realized=None,
                            failed_models=[],
                        )
                    continue
                with obs.span("update"):
                    self._update(env, t, frame, batch)
                chosen = batch.serving(selected)
                realized = chosen.realized_key
                degraded = realized != selected
                if degraded:
                    env.note_frame_degraded()
                spent_ms += batch.billable_ms
                frames_done += 1
                frame_span.set_sim_ms(batch.billable_ms)
                record = FrameRecord(
                    iteration=t,
                    frame_index=frame.index,
                    selected=selected,
                    est_score=chosen.est_score,
                    est_ap=chosen.est_ap,
                    true_score=chosen.true_score,
                    true_ap=chosen.true_ap,
                    cost_ms=chosen.cost_ms,
                    normalized_cost=chosen.normalized_cost,
                    charged_ms=batch.billable_ms,
                    realized=realized if degraded else None,
                )
                if obs.metrics_on:
                    self._record_frame_obs(env, t, frame, batch, record)
                for observer in observers:
                    observer(frame, batch, record)
            yield record
        if obs.metrics_on:
            obs.set_gauge(
                "repro_budget_spent_ms",
                spent_ms,
                description="Billable milliseconds consumed by the run",
                algorithm=label,
            )
            if budget_ms is not None:
                obs.event(
                    "budget",
                    algorithm=label,
                    budget_ms=budget_ms,
                    spent_ms=spent_ms,
                    frames=frames_done,
                    exhausted=spent_ms > budget_ms,
                )

    def _record_frame_obs(
        self,
        env: DetectionEnvironment,
        t: int,
        frame: Frame,
        batch: EvaluationBatch,
        record: FrameRecord,
    ) -> None:
        """Fold one completed frame into metrics and the event log.

        Everything recorded here is *logical* (simulated costs, counts) —
        identical across runs of the same seed.
        """
        obs = env.obs
        obs.count(
            "repro_frames_total",
            description="Frames completing the select/evaluate/update loop",
            algorithm=self.name,
        )
        obs.observe(
            "repro_frame_charged_ms",
            record.charged_ms,
            description="Billable (simulated) milliseconds per frame",
        )
        obs.observe(
            "repro_ensemble_size",
            float(len(record.realized_key)),
            buckets=(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0),
            description="Members in the realized selected ensemble",
        )
        selected_label = "+".join(record.selected)
        realized_label = (
            "+".join(record.realized) if record.realized is not None else None
        )
        if record.degraded:
            obs.count(
                "repro_frames_degraded_total",
                description="Frames served by a degraded (subset) ensemble",
                algorithm=self.name,
            )
            obs.event(
                "degradation",
                algorithm=self.name,
                iteration=t,
                frame_index=frame.index,
                kind="degraded",
                selected=selected_label,
                realized=realized_label,
                failed_models=list(batch.failed_models),
            )
        obs.event(
            "frame-completed",
            algorithm=self.name,
            iteration=t,
            frame_index=frame.index,
            selected=selected_label,
            realized=realized_label,
            charged_ms=record.charged_ms,
            est_score=record.est_score,
            true_score=record.true_score,
            degraded=record.degraded,
        )
