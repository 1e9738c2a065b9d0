"""The pluggable execution engine: backends, bounded store, resilience.

This package is the layer between the selection algorithms / query planner
and the detector models; it imports nothing from :mod:`repro.core`:

* :mod:`repro.engine.backends` — *where* inference jobs run (serial,
  thread pool, process pool), wall-clock only, result-equivalent;
* :mod:`repro.engine.store` — the bounded, LRU-evicting, thread-safe
  :class:`EvaluationStore` with :class:`CacheStats` instrumentation;
* :mod:`repro.engine.resilience` — immediate retries, simulated-latency
  timeouts and per-detector circuit breakers (:class:`ResilientBackend`),
  with :class:`FaultStats` instrumentation.
"""

from repro.engine.backends import (
    BACKEND_NAMES,
    JOB_STATUSES,
    ExecutionBackend,
    InferenceJob,
    JobResult,
    ProcessPoolBackend,
    SerialBackend,
    ThreadPoolBackend,
    make_backend,
)
from repro.engine.resilience import CircuitBreaker, FaultStats, ResilientBackend
from repro.engine.store import CacheStats, DEFAULT_CAPACITY, EvaluationStore, StageStats

__all__ = [
    "BACKEND_NAMES",
    "JOB_STATUSES",
    "ExecutionBackend",
    "InferenceJob",
    "JobResult",
    "CircuitBreaker",
    "FaultStats",
    "ResilientBackend",
    "SerialBackend",
    "ThreadPoolBackend",
    "ProcessPoolBackend",
    "make_backend",
    "DEFAULT_CAPACITY",
    "CacheStats",
    "EvaluationStore",
    "StageStats",
]
