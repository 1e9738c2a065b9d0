"""Execution backends: where (real) inference work actually runs.

The environment's :meth:`~repro.core.environment.DetectionEnvironment.evaluate`
needs, per frame, the outputs of the *union of member detectors* plus the
reference model — the work that dominates cost in the paper.  A backend
decides how those independent inference jobs execute:

* :class:`SerialBackend` — one after another on the calling thread;
* :class:`ThreadPoolBackend` — a shared thread pool, for detectors whose
  ``detect`` releases the GIL (real GPU/IO-bound inference);
* :class:`ProcessPoolBackend` — a process pool, for CPU-bound detectors
  (jobs and outputs must be picklable; the simulated detectors are).

Backends change *wall-clock* time only.  Every simulated-clock charge,
score and selection is computed from the returned outputs afterwards on
the calling thread, so all backends are bitwise-equivalent on results —
a property ``tests/test_engine_backends.py`` pins for MES, MES-B and
SW-MES.  Billing never depends on the backend either: the environment
adds up the members' simulated inference times (Eq. 12/14) even when a
parallel backend ran them at once.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Protocol, runtime_checkable

from repro.obs import NULL_OBS, Observability

__all__ = [
    "InferenceJob",
    "JobResult",
    "JOB_STATUSES",
    "ExecutionBackend",
    "SerialBackend",
    "ThreadPoolBackend",
    "ProcessPoolBackend",
    "BACKEND_NAMES",
    "make_backend",
    "submission_chunksize",
]


def submission_chunksize(num_jobs: int, workers: int) -> int:
    """Chunk size for pool submission: jobs per pickle/IPC round-trip.

    ``Executor.map``'s default ``chunksize=1`` ships one job per worker
    round-trip; for a process pool that is one pickle + two pipe
    crossings *per job*, which dominates wall time for cheap jobs.
    Chunking amortizes it while still leaving ~4 chunks per worker so
    the pool load-balances uneven job durations — the same policy as
    ``repro.lint.engine``'s parallel file linting.

    Results are unaffected: ``map`` returns results in job order no
    matter how submissions are chunked.
    """
    if num_jobs < 1:
        raise ValueError("num_jobs must be at least 1")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    return max(1, num_jobs // (workers * 4))


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
    """Run one job, timing it.  Module-level so process pools can pickle it.

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

    #: Short identifier (``"serial"``, ``"thread"``, ``"process"``).
    name: str

    def run(self, jobs: Sequence[InferenceJob]) -> list[JobResult]:
        """Execute all jobs, returning their results in job order."""
        ...

    def close(self) -> None:
        """Release any worker resources; idempotent."""
        ...

    def __enter__(self) -> ExecutionBackend:
        """Context-manager entry; backends close their pools on exit."""
        ...

    def __exit__(self, *exc: object) -> None:
        ...


def _record_batch(obs: Observability, results: Sequence[JobResult]) -> None:
    """Fold one batch into the jobs/batch-size metrics.

    Only *logical* facts are recorded (statuses, counts — both
    deterministic for a seeded run), never wall times, so serial and
    parallel backends produce identical metric snapshots.
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
    """Run jobs sequentially on the calling thread (the default)."""

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


class _PoolBackend:
    """Shared lazy-pool machinery for thread/process backends."""

    name = "pool"

    def __init__(self, workers: int = 4, obs: Observability = NULL_OBS) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self.workers = workers
        self.obs = obs
        self._executor: Executor | None = None

    def _make_executor(self) -> Executor:
        raise NotImplementedError

    def _pool(self) -> Executor:
        if self._executor is None:
            self._executor = self._make_executor()
        return self._executor

    def run(self, jobs: Sequence[InferenceJob]) -> list[JobResult]:
        if len(jobs) <= 1:
            # Pool dispatch overhead is never worth it for a single job.
            results = [_execute_job(job) for job in jobs]
        else:
            # Chunked submission: thread pools ignore chunksize, process
            # pools ship ``chunksize`` jobs per pickle/IPC round-trip.
            results = list(
                self._pool().map(
                    _execute_job,
                    jobs,
                    chunksize=submission_chunksize(len(jobs), self.workers),
                )
            )
        if self.obs.metrics_on:
            _record_batch(self.obs, results)
        return results

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> _PoolBackend:
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(workers={self.workers})"


class ThreadPoolBackend(_PoolBackend):
    """Run jobs on a thread pool.

    Speeds up detectors whose ``detect`` releases the GIL (network
    inference on an accelerator, remote calls, I/O).  Pure-Python
    simulated detectors see little wall-clock gain but remain bitwise
    result-equivalent to :class:`SerialBackend`.
    """

    name = "thread"

    def _make_executor(self) -> Executor:
        return ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-engine"
        )


class ProcessPoolBackend(_PoolBackend):
    """Run jobs on a process pool (CPU-bound detectors).

    Jobs and outputs cross process boundaries, so models, frames and
    detector outputs must be picklable.  Worker startup is amortized
    across the backend's lifetime — reuse one backend for a whole run.
    """

    name = "process"

    def _make_executor(self) -> Executor:
        return ProcessPoolExecutor(max_workers=self.workers)


#: Backend names accepted by :func:`make_backend` (and ``--backend``).
BACKEND_NAMES: tuple[str, ...] = ("serial", "thread", "process")


def make_backend(
    name: str, workers: int = 4, obs: Observability = NULL_OBS
) -> ExecutionBackend:
    """Construct a backend by name.

    Args:
        name: One of :data:`BACKEND_NAMES`.
        workers: Pool size for the parallel backends (ignored by serial).
        obs: Observability facade recording job/batch metrics; the default
            no-op facade keeps uninstrumented runs zero-cost.
    """
    if name == "serial":
        return SerialBackend(obs=obs)
    if name == "thread":
        return ThreadPoolBackend(workers=workers, obs=obs)
    if name == "process":
        return ProcessPoolBackend(workers=workers, obs=obs)
    raise ValueError(f"unknown backend {name!r}; known: {list(BACKEND_NAMES)}")
