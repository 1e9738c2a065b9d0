"""Resilient execution: retries, timeouts and per-detector circuit breakers.

:class:`ResilientBackend` wraps any :class:`~repro.engine.backends.ExecutionBackend`
and turns raw job failures into one fixed fault-tolerance rule:

* **Retry.**  Failed and timed-out jobs are re-executed at once, up to
  ``max_attempts`` attempts in all.  Nothing waits between attempts: the
  simulated clock bills inference and fusion only, so a delay would be
  neither spent nor charged.

* **Per-job timeout.**  Jobs whose *simulated* latency
  (``output.inference_time_ms``) exceeds ``timeout_ms`` are classified
  ``"timeout"`` and their output discarded, exactly as a serving system
  would cancel a straggler.  Basing the timeout on simulated latency keeps
  runs bit-for-bit reproducible — a wall-clock timeout would make the
  fault trace depend on the host's speed.

* **Per-detector circuit breaker.**  After :data:`FAILURE_THRESHOLD`
  consecutive failures a model's circuit opens: its jobs are skipped
  (``"skipped-open-circuit"``) without touching the model.  After
  :data:`COOLDOWN_BATCHES` calls to :meth:`ResilientBackend.run` the
  circuit goes half-open and admits a single probe job; success closes
  it, failure re-opens it.  Cooldown is counted in batches (one batch per
  processed frame), not wall time, so breaker traces are deterministic.

All breaker and retry bookkeeping runs on the *calling* thread — jobs are
dispatched to the inner backend, but their outcomes are folded into
breaker state in job order after the batch returns, so a seeded faulty
run has one fault trace.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace

from repro.engine.backends import ExecutionBackend, InferenceJob, JobResult
from repro.obs import NULL_OBS, Observability

__all__ = [
    "FAILURE_THRESHOLD",
    "COOLDOWN_BATCHES",
    "CircuitBreaker",
    "FaultStats",
    "ResilientBackend",
]

#: Consecutive failures that open a model's circuit.
FAILURE_THRESHOLD = 3

#: ``run()`` batches an open circuit waits before going half-open and
#: admitting one probe job.
COOLDOWN_BATCHES = 5


class CircuitBreaker:
    """Closed / open / half-open failure gate for one model.

    The lifecycle is the classic one: :data:`FAILURE_THRESHOLD`
    consecutive failures open the circuit, a cooldown of
    :data:`COOLDOWN_BATCHES` batches (counted via :meth:`tick`) half-opens
    it, a probe success closes it and a probe failure re-opens it.  A
    failure recorded while the circuit is open re-arms the cooldown.

    The half-open state guarantees a *single* probe: :meth:`try_admit`
    admits exactly one job until its outcome is recorded, so two jobs for
    the same model in one batch (or two racing batches sharing this
    breaker) can never both probe a recovering model.  The breaker itself
    is not locked — callers serialize access (see
    :attr:`ResilientBackend._lock`).
    """

    def __init__(self) -> None:
        self._consecutive_failures = 0
        self._state = "closed"
        self._cooldown_remaining = 0
        self._probe_inflight = False

    @property
    def state(self) -> str:
        """``"closed"``, ``"open"`` or ``"half-open"``."""
        return self._state

    def tick(self) -> None:
        """Advance logical time by one batch (one ``run()`` call)."""
        if self._state == "open":
            self._cooldown_remaining -= 1
            if self._cooldown_remaining <= 0:
                self._state = "half-open"

    def try_admit(self) -> bool:
        """Admit one job, reserving the single half-open probe slot.

        Closed circuits admit everything; open circuits admit nothing; a
        half-open circuit admits exactly one probe until its outcome is
        recorded — further requests are refused (and should be skipped
        like open-circuit jobs).
        """
        if self._state == "closed":
            return True
        if self._state == "open":
            return False
        if self._probe_inflight:
            return False
        self._probe_inflight = True
        return True

    def record_success(self) -> None:
        self._probe_inflight = False
        self._consecutive_failures = 0
        self._state = "closed"

    def record_failure(self) -> None:
        self._probe_inflight = False
        self._consecutive_failures += 1
        if (
            self._state == "half-open"
            or self._consecutive_failures >= FAILURE_THRESHOLD
        ):
            self._cooldown_remaining = COOLDOWN_BATCHES
            self._state = "open"

    def __repr__(self) -> str:
        return (
            f"CircuitBreaker(state={self._state!r}, "
            f"consecutive_failures={self._consecutive_failures})"
        )


@dataclass(frozen=True)
class FaultStats:
    """Immutable fault-tolerance counters (the peer of ``CacheStats``).

    Job-level counters come from a :class:`ResilientBackend`; the frame
    counters are zero there and filled in by
    :meth:`repro.core.environment.DetectionEnvironment.fault_stats`, which
    merges the execution view with the degradation view.

    Attributes:
        attempts: Job executions, including retries.
        failures: Attempts that raised (status ``"failed"``).
        timeouts: Attempts whose simulated latency exceeded the timeout.
        retries: Re-executions after a failed/timed-out attempt.
        recoveries: Jobs that failed at least once but ultimately
            succeeded within their attempt budget.
        breaker_opens: Circuit-open transitions across all models.
        breaker_skips: Jobs skipped because a circuit was open.
        frames_degraded: Frames where the realized ensemble was a proper
            subset of the selected one.
        frames_abandoned: Frames yielding no usable evaluation at all.
        ensembles_dropped: Requested ensemble evaluations with no healthy
            member.
    """

    attempts: int = 0
    failures: int = 0
    timeouts: int = 0
    retries: int = 0
    recoveries: int = 0
    breaker_opens: int = 0
    breaker_skips: int = 0
    frames_degraded: int = 0
    frames_abandoned: int = 0
    ensembles_dropped: int = 0

    def as_dict(self) -> dict[str, int]:
        """A JSON-serializable view."""
        return {
            "attempts": self.attempts,
            "failures": self.failures,
            "timeouts": self.timeouts,
            "retries": self.retries,
            "recoveries": self.recoveries,
            "breaker_opens": self.breaker_opens,
            "breaker_skips": self.breaker_skips,
            "frames_degraded": self.frames_degraded,
            "frames_abandoned": self.frames_abandoned,
            "ensembles_dropped": self.ensembles_dropped,
        }


class ResilientBackend:
    """Fault-tolerant decorator over any execution backend.

    Implements the :class:`~repro.engine.backends.ExecutionBackend`
    protocol, so it drops into every place a backend goes — the
    environment, the CLI, the harness.  The first attempt of a batch is
    dispatched to the inner backend as one batch; retries are
    re-dispatched job by job.

    Args:
        inner: The wrapped backend (owned: ``close()`` closes it).
        max_attempts: Total execution attempts per job (>= 1; 1 disables
            retries).
        timeout_ms: Optional per-job simulated-latency timeout.
        obs: Observability facade; records retry/timeout/skip counters,
            circuit-transition events and retry spans.  The default no-op
            facade keeps uninstrumented runs zero-cost.
    """

    def __init__(
        self,
        inner: ExecutionBackend,
        max_attempts: int = 3,
        timeout_ms: float | None = None,
        obs: Observability = NULL_OBS,
    ) -> None:
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if timeout_ms is not None and timeout_ms <= 0:
            raise ValueError("timeout_ms must be positive when given")
        self.inner = inner
        self.max_attempts = max_attempts
        self.timeout_ms = timeout_ms
        self.obs = obs
        # Serializes breaker admission, outcome folding and stats updates:
        # concurrent run() calls (e.g. two harness threads sharing one
        # resilient backend) must see atomic breaker state, or a half-open
        # circuit could admit two probes.  First-attempt batches execute
        # outside the lock.
        self._lock = threading.RLock()
        self._breakers: dict[str, CircuitBreaker] = {}
        self._stats = FaultStats()
        self._batches = 0

    @property
    def name(self) -> str:
        return f"resilient-{self.inner.name}"

    # ---- breakers -------------------------------------------------------

    def _step(
        self,
        model_name: str,
        breaker: CircuitBreaker,
        step: Callable[[CircuitBreaker], None],
    ) -> None:
        """Apply one breaker step and record the state change it makes.

        A change emits the ``circuit-transition`` event and bumps
        ``repro_breaker_transitions_total``; a change *to* ``"open"`` also
        counts one :attr:`FaultStats.breaker_opens`.  A step that leaves
        the state as it was (a failure folded into an already-open
        circuit, a cooldown tick short of half-open) records nothing.
        """
        old_state = breaker.state
        step(breaker)
        new_state = breaker.state
        if new_state == old_state:
            return
        if new_state == "open":
            self._stats = replace(
                self._stats, breaker_opens=self._stats.breaker_opens + 1
            )
        if not self.obs.metrics_on:
            return
        self.obs.event(
            "circuit-transition",
            model=model_name,
            from_state=old_state,
            to_state=new_state,
            batch=self._batches,
        )
        self.obs.count(
            "repro_breaker_transitions_total",
            description="Circuit-breaker state transitions",
            model=model_name,
            to_state=new_state,
        )

    def open_detectors(self) -> frozenset[str]:
        """Names whose circuit is currently open (jobs would be skipped).

        The environment exposes this to the selection algorithms so they
        can mask arms containing unavailable detectors; half-open circuits
        are *not* reported, because their next job is the probe that may
        heal them.
        """
        with self._lock:
            return frozenset(
                name
                for name, breaker in self._breakers.items()
                if breaker.state == "open"
            )

    def stats(self) -> FaultStats:
        """Snapshot of the job-level fault counters."""
        with self._lock:
            return self._stats

    # ---- execution ------------------------------------------------------

    @staticmethod
    def _model_name(job: InferenceJob) -> str:
        return str(getattr(job.model, "name", repr(job.model)))

    def _classify(self, result: JobResult) -> JobResult:
        """Downgrade over-latency successes to ``"timeout"`` results."""
        if not result.ok or self.timeout_ms is None:
            return result
        latency = getattr(result.output, "inference_time_ms", None)
        if latency is not None and latency > self.timeout_ms:
            return replace(
                result,
                output=None,
                status="timeout",
                error=(
                    f"inference took {latency:.1f} ms "
                    f"(timeout {self.timeout_ms:.1f} ms)"
                ),
            )
        return result

    def _resolve(
        self, job: InferenceJob, model_name: str, first: JobResult
    ) -> JobResult:
        """Retry one job from its first-attempt result; count each attempt."""
        result = self._classify(first)
        stats = replace(self._stats, attempts=self._stats.attempts + 1)
        attempts = 1
        wall_ms = result.wall_ms
        while not result.ok:
            if result.status == "timeout":
                stats = replace(stats, timeouts=stats.timeouts + 1)
                self.obs.count(
                    "repro_timeouts_total",
                    description="Inference attempts over the latency timeout",
                    model=model_name,
                )
            else:
                stats = replace(stats, failures=stats.failures + 1)
            if attempts == self.max_attempts:
                break
            attempts += 1
            stats = replace(
                stats,
                attempts=stats.attempts + 1,
                retries=stats.retries + 1,
            )
            self.obs.count(
                "repro_retries_total",
                description="Inference job re-executions after a failure",
                model=model_name,
            )
            result = self._classify(self.inner.run([job])[0])
            wall_ms += result.wall_ms
            if self.obs.trace_on:
                self.obs.add_span(
                    "retry",
                    wall_ms=result.wall_ms,
                    status=result.status,
                    model=model_name,
                    attempt=attempts,
                )
        if result.ok and attempts > 1:
            stats = replace(stats, recoveries=stats.recoveries + 1)
        self._stats = stats
        return replace(result, wall_ms=wall_ms, attempts=attempts)

    def run(self, jobs: Sequence[InferenceJob]) -> list[JobResult]:
        """Execute a batch under the retry / timeout / breaker rule.

        Breaker decisions are taken on the batch snapshot (jobs within one
        batch do not open each other's circuits — a batch is one frame's
        independent inferences); outcomes are folded into breaker state in
        job order afterwards.  Results come back in job order with
        ``"skipped-open-circuit"`` placeholders for skipped jobs.

        Admission goes through :meth:`CircuitBreaker.try_admit`, so a
        half-open circuit admits exactly one probe per model — the other
        jobs of the batch (and of any concurrently running batch; the
        internal lock serializes breaker access) are skipped until the
        probe's outcome is known.
        """
        admitted: list[tuple[int, InferenceJob, str]] = []
        results: list[JobResult | None] = [None] * len(jobs)
        with self._lock:
            self._batches += 1
            for model_name, breaker in self._breakers.items():
                self._step(model_name, breaker, CircuitBreaker.tick)
            for index, job in enumerate(jobs):
                model_name = self._model_name(job)
                breaker = self._breakers.get(model_name)
                if breaker is None:
                    breaker = self._breakers[model_name] = CircuitBreaker()
                if breaker.try_admit():
                    admitted.append((index, job, model_name))
                else:
                    self._stats = replace(
                        self._stats,
                        breaker_skips=self._stats.breaker_skips + 1,
                    )
                    self.obs.count(
                        "repro_breaker_skips_total",
                        description="Jobs skipped by a non-closed circuit",
                        model=model_name,
                    )
                    results[index] = JobResult(
                        output=None,
                        wall_ms=0.0,
                        status="skipped-open-circuit",
                        attempts=0,
                        error="circuit open",
                    )
        if admitted:
            # The first attempt runs as one batch on the inner backend,
            # outside the lock.
            first_attempts = self.inner.run([job for _, job, _ in admitted])
            with self._lock:
                for (index, job, model_name), first in zip(
                    admitted, first_attempts, strict=True
                ):
                    final = self._resolve(job, model_name, first)
                    self._step(
                        model_name,
                        self._breakers[model_name],
                        CircuitBreaker.record_success
                        if final.ok
                        else CircuitBreaker.record_failure,
                    )
                    results[index] = final
        return [result for result in results if result is not None]

    def close(self) -> None:
        """Close the wrapped backend; idempotent."""
        self.inner.close()

    def __enter__(self) -> ResilientBackend:
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ResilientBackend(inner={self.inner!r}, "
            f"max_attempts={self.max_attempts}, "
            f"timeout_ms={self.timeout_ms})"
        )
