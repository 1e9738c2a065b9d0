"""The unified frame pipeline: frame → evaluate → observe → record.

Every consumer of the runtime used to carry its own copy of this loop —
the selection algorithms' iterate loop, the query executor's row
materialization pass, and the benchmark harness's trial driver.
:class:`FramePipeline` is now the *only* frame-loop implementation:
:class:`~repro.core.selection.IterativeSelection` (and through it every
algorithm and the multi-trial harness) and
:class:`~repro.query.executor.QueryEngine` all drive it.

Per iteration the pipeline:

1. guards the TCVI budget (Alg. 2 line 6: iteration ``t`` starts only
   while cumulative billable cost is ``<= B``; the final iteration may
   overshoot, the next never starts);
2. asks the algorithm hook to *choose* the selected ensemble plus the
   full evaluation list (piggyback subsets included);
3. bills selection overhead and *evaluates* the batch through the
   environment (union-of-member inference, Eq. 12/14 billing);
4. lets the algorithm *observe* the batch (its ``_update`` hook) and
   notifies any registered observers (e.g. the query executor capturing
   fused detections for row materialization);
5. yields the :class:`FrameRecord`.

Under fault injection an evaluation can *degrade*: failed members drop
out and the environment realizes each requested ensemble as its best
healthy subset.  The pipeline then records both the selected and the
realized ensemble.  A frame with no usable evaluation at all (REF down,
or every member of every requested ensemble failed) raises
:class:`FrameEvaluationError` inside the environment; the pipeline
*abandons* that frame — counts it, yields no record — and continues with
the next one instead of aborting the run.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.obs import NULL_OBS

if TYPE_CHECKING:  # imported lazily to avoid a package import cycle
    from repro.core.environment import DetectionEnvironment, EvaluationBatch
    from repro.core.ensembles import EnsembleKey
    from repro.simulation.video import Frame

__all__ = [
    "FrameEvaluationError",
    "FrameRecord",
    "FrameObserver",
    "ChooseHook",
    "UpdateHook",
    "FramePipeline",
]


class FrameEvaluationError(RuntimeError):
    """A frame produced no usable evaluation (REF or all members failed).

    Raised by
    :meth:`~repro.core.environment.DetectionEnvironment.evaluate` when
    fault injection leaves nothing to score; :class:`FramePipeline`
    catches it, abandons the frame and moves on.  Defined in the engine
    layer so the pipeline never imports :mod:`repro.core` at runtime.
    """


@dataclass(frozen=True)
class FrameRecord:
    """Outcome of one iteration (one processed frame).

    Attributes:
        iteration: 1-based iteration number ``t``.
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
FrameObserver = Callable[["Frame", "EvaluationBatch", FrameRecord], None]

#: ``choose(env, t, frame) -> (selected, ensembles_to_evaluate)``.
ChooseHook = Callable[
    ["DetectionEnvironment", int, "Frame"],
    tuple["EnsembleKey", list["EnsembleKey"]],
]

#: ``update(env, t, frame, batch)`` — fold the batch into algorithm state.
UpdateHook = Callable[["DetectionEnvironment", int, "Frame", "EvaluationBatch"], None]


class FramePipeline:
    """The single frame → evaluate → observe → record loop.

    Args:
        env: The detection environment to evaluate against.
        budget_ms: Optional TCVI budget ``B``; iteration stops once
            cumulative billable time exceeds it.
        observers: Callbacks fired per processed frame with
            ``(frame, batch, record)``.
        label: Name used in error messages (typically the algorithm name).
    """

    def __init__(
        self,
        env: DetectionEnvironment,
        budget_ms: float | None = None,
        observers: Sequence[FrameObserver] = (),
        label: str = "pipeline",
    ) -> None:
        if budget_ms is not None and budget_ms <= 0:
            raise ValueError("budget_ms must be positive when given")
        self.env = env
        self.budget_ms = budget_ms
        self.observers: tuple[FrameObserver, ...] = tuple(observers)
        self.label = label

    def run(
        self,
        frames: Iterable["Frame"],
        choose: ChooseHook,
        update: UpdateHook | None = None,
    ) -> Iterator[FrameRecord]:
        """Process frames lazily, yielding one record per iteration.

        Works on unbounded streams (any iterable of frames); iteration
        stops when the stream ends or the budget is exhausted.

        Raises:
            RuntimeError: If ``choose`` returns a selected ensemble that
                is missing from its own evaluation list.
        """
        env = self.env
        obs = getattr(env, "obs", NULL_OBS)
        spent_ms = 0.0
        frames_done = 0
        for t, frame in enumerate(frames, start=1):
            if self.budget_ms is not None and spent_ms > self.budget_ms:
                break
            with obs.span(
                "frame",
                algorithm=self.label,
                iteration=t,
                frame_index=frame.index,
            ) as frame_span:
                try:
                    # choose() is inside the guard too: oracle-style hooks
                    # peek through the environment and can hit the same
                    # failures as the charged evaluation below.
                    with obs.span("select"):
                        selected, eval_keys = choose(env, t, frame)
                        if selected not in eval_keys:
                            raise RuntimeError(
                                f"{self.label}: selected ensemble {selected} "
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
                            algorithm=self.label,
                        )
                        obs.event(
                            "degradation",
                            algorithm=self.label,
                            iteration=t,
                            frame_index=frame.index,
                            kind="abandoned",
                            selected=None,
                            realized=None,
                            failed_models=[],
                        )
                    continue
                if update is not None:
                    with obs.span("update"):
                        update(env, t, frame, batch)
                chosen = batch.evaluations.get(selected)
                if chosen is None:
                    # The selection itself realized empty; fall back to the
                    # best healthy evaluation of the batch (deterministic
                    # tie-break on the key).
                    chosen = max(
                        batch.evaluations.values(),
                        key=lambda e: (e.est_score, e.key),
                    )
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
                    self._record_frame_obs(t, frame, batch, record)
                for observer in self.observers:
                    observer(frame, batch, record)
            yield record
        if obs.metrics_on:
            obs.set_gauge(
                "repro_budget_spent_ms",
                spent_ms,
                description="Billable milliseconds consumed by the run",
                algorithm=self.label,
            )
            if self.budget_ms is not None:
                obs.event(
                    "budget",
                    algorithm=self.label,
                    budget_ms=self.budget_ms,
                    spent_ms=spent_ms,
                    frames=frames_done,
                    exhausted=spent_ms > self.budget_ms,
                )

    def _record_frame_obs(
        self,
        t: int,
        frame: "Frame",
        batch: "EvaluationBatch",
        record: FrameRecord,
    ) -> None:
        """Fold one completed frame into metrics and the event log.

        Everything recorded here is *logical* (simulated costs, counts) —
        identical for serial and parallel backends on the same seed.
        """
        obs = getattr(self.env, "obs", NULL_OBS)
        obs.count(
            "repro_frames_total",
            description="Frames completing the select/evaluate/update loop",
            algorithm=self.label,
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
                algorithm=self.label,
            )
            obs.event(
                "degradation",
                algorithm=self.label,
                iteration=t,
                frame_index=frame.index,
                kind="degraded",
                selected=selected_label,
                realized=realized_label,
                failed_models=list(batch.failed_models),
            )
        obs.event(
            "frame-completed",
            algorithm=self.label,
            iteration=t,
            frame_index=frame.index,
            selected=selected_label,
            realized=realized_label,
            charged_ms=record.charged_ms,
            est_score=record.est_score,
            true_score=record.true_score,
            degraded=record.degraded,
        )
