"""Execution backends: where (real) inference work actually runs.

The environment's :meth:`~repro.core.environment.DetectionEnvironment.evaluate`
needs, per frame, the outputs of the *union of member detectors* plus the
reference model — the work that dominates cost in the paper.  A backend
runs those independent inference jobs and reports each one's status:

* :class:`SerialBackend` runs them one after another on the calling
  thread;
* :class:`~repro.engine.resilience.ResilientBackend` wraps it with
  retries, simulated-latency timeouts and circuit breakers.

There is one execution path on purpose.  The paper bills an ensemble as
the sum of its members' simulated inference times (Eq. 12/14) and saves
time by choosing cheaper ensembles, not by running detectors at once;
a simulated ``detect`` costs a fraction of a millisecond of pure-Python
work, less than dispatching it to a pool would.  Every simulated-clock
charge, score and selection is computed from the returned outputs.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any, Protocol, runtime_checkable

from repro.obs import NULL_OBS, Observability

__all__ = [
    "InferenceJob",
    "JobResult",
    "JOB_STATUSES",
    "ExecutionBackend",
    "SerialBackend",
    "make_backend",
]


@dataclass(frozen=True)
class InferenceJob:
    """One unit of inference work: apply one model to one frame.

    Attributes:
        model: Anything with ``.detect(frame)`` (a member detector or the
            REF model).
        frame: The frame to process.
    """

    model: Any
    frame: Any


#: Job outcome classifications.  ``"ok"`` carries an output; the other
#: statuses carry ``output=None`` and (except for skips) an ``error``.
JOB_STATUSES: tuple[str, ...] = (
    "ok",
    "failed",
    "timeout",
    "skipped-open-circuit",
)


@dataclass(frozen=True)
class JobResult:
    """A job's outcome: output (when successful), status and timing.

    ``wall_ms`` is measurement-only instrumentation (fed to the
    :class:`~repro.engine.store.EvaluationStore` timing counters); the
    simulated billing time lives inside ``output.inference_time_ms``.

    A raised exception inside ``model.detect`` never propagates out of a
    backend: it is captured as a ``"failed"`` result so one bad inference
    cannot abort a whole video run.  The
    :class:`~repro.engine.resilience.ResilientBackend` layers retries,
    timeouts and circuit breaking on top of these statuses.

    Attributes:
        output: The model output for ``"ok"`` results, ``None`` otherwise.
        wall_ms: Wall-clock milliseconds spent producing this result
            (across all attempts, for resilient execution).
        status: One of :data:`JOB_STATUSES`.
        attempts: How many times the job was executed (0 for jobs skipped
            by an open circuit).
        error: ``"ExcType: message"`` of the last failure, if any.
    """

    output: Any
    wall_ms: float
    status: str = "ok"
    attempts: int = 1
    error: str | None = None

    @property
    def ok(self) -> bool:
        """True when the job produced a usable output."""
        return self.status == "ok"


def wall_timer() -> float:
    """The sanctioned wall-clock source for *measurement-only* timing.

    Everything outside this module (and ``benchmarks/``) is barred from
    reading the wall clock directly (lint rule RPR002); components that
    legitimately instrument compute time — e.g. the
    :class:`~repro.engine.store.EvaluationStore` — take an injectable
    timer defaulting to this function, keeping every wall-clock read
    behind one auditable seam.
    """
    return time.perf_counter()


def _execute_job(job: InferenceJob) -> JobResult:
    """Run one job, timing it.

    Exceptions raised by ``model.detect`` are captured as ``"failed"``
    results rather than propagated: a single bad inference must degrade
    the frame, not abort the run (the environment and the resilience
    layer decide what failure means).
    """
    start = wall_timer()
    try:
        output = job.model.detect(job.frame)
    except Exception as exc:  # any model error is a job failure, not a crash
        return JobResult(
            output=None,
            wall_ms=(wall_timer() - start) * 1000.0,
            status="failed",
            error=f"{type(exc).__name__}: {exc}",
        )
    return JobResult(output=output, wall_ms=(wall_timer() - start) * 1000.0)


@runtime_checkable
class ExecutionBackend(Protocol):
    """Strategy for executing a batch of independent inference jobs.

    Implementations must return results in job order and must not reorder,
    drop, or merge jobs — the environment relies on positional matching.
    """

    #: Short identifier (``"serial"``, ``"resilient-serial"``).
    name: str

    def run(self, jobs: Sequence[InferenceJob]) -> list[JobResult]:
        """Execute all jobs, returning their results in job order."""
        ...

    def close(self) -> None:
        """Release any resources the backend holds; idempotent."""
        ...

    def __enter__(self) -> ExecutionBackend:
        """Context-manager entry; backends close themselves on exit."""
        ...

    def __exit__(self, *exc: object) -> None:
        ...


def _record_batch(obs: Observability, results: Sequence[JobResult]) -> None:
    """Fold one batch into the jobs/batch-size metrics.

    Only *logical* facts are recorded (statuses, counts — both
    deterministic for a seeded run), never wall times, so two runs of
    one seeded experiment produce identical metric snapshots.
    """
    obs.observe(
        "repro_engine_batch_jobs",
        float(len(results)),
        description="Inference jobs per backend batch",
    )
    for result in results:
        obs.count(
            "repro_engine_jobs_total",
            description="Inference jobs executed, by outcome status",
            status=result.status,
        )


class SerialBackend:
    """Run jobs sequentially on the calling thread."""

    name = "serial"

    def __init__(self, obs: Observability = NULL_OBS) -> None:
        self.obs = obs

    def run(self, jobs: Sequence[InferenceJob]) -> list[JobResult]:
        results = [_execute_job(job) for job in jobs]
        if self.obs.metrics_on:
            _record_batch(self.obs, results)
        return results

    def close(self) -> None:  # nothing to release
        pass

    def __enter__(self) -> SerialBackend:
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return "SerialBackend()"


def make_backend(name: str, obs: Observability = NULL_OBS) -> ExecutionBackend:
    """Construct a backend by name.

    Args:
        name: ``"serial"``, the one execution backend.
        obs: Observability facade recording job/batch metrics; the default
            no-op facade keeps uninstrumented runs zero-cost.
    """
    if name == "serial":
        return SerialBackend(obs=obs)
    raise ValueError(f"unknown backend {name!r}; known: ['serial']")
