"""The pluggable execution engine: backends, bounded store, resilience.

This package is the layer between the selection algorithms / query planner
and the detector models; it imports nothing from :mod:`repro.core`:

* :mod:`repro.engine.backends` — the serial backend that runs inference
  jobs and reports each job's status;
* :mod:`repro.engine.store` — the bounded, LRU-evicting, thread-safe
  :class:`EvaluationStore` with :class:`CacheStats` instrumentation;
* :mod:`repro.engine.resilience` — immediate retries, simulated-latency
  timeouts and per-detector circuit breakers (:class:`ResilientBackend`),
  with :class:`FaultStats` instrumentation.
"""

from repro.engine.backends import (
    JOB_STATUSES,
    ExecutionBackend,
    InferenceJob,
    JobResult,
    SerialBackend,
    make_backend,
)
from repro.engine.resilience import CircuitBreaker, FaultStats, ResilientBackend
from repro.engine.store import CacheStats, DEFAULT_CAPACITY, EvaluationStore, StageStats

__all__ = [
    "JOB_STATUSES",
    "ExecutionBackend",
    "InferenceJob",
    "JobResult",
    "CircuitBreaker",
    "FaultStats",
    "ResilientBackend",
    "SerialBackend",
    "make_backend",
    "DEFAULT_CAPACITY",
    "CacheStats",
    "EvaluationStore",
    "StageStats",
]
