"""Structured run events with stable, validated schemas (JSONL export).

Every event type declares the exact field set it carries; :meth:`emit`
rejects missing or unknown fields so the JSONL output stays machine-
parsable across versions — downstream tooling can rely on the schemas in
``EVENT_SCHEMAS`` (documented in docs/OBSERVABILITY.md).

Events record *logical* facts only (frame indices, ensemble keys,
simulated milliseconds) — never wall-clock readings — so two runs of
one seed emit identical event streams, ``seq`` numbers included.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any

__all__ = ["EVENT_SCHEMAS", "RunEventLog"]

#: Event type -> exact required field names (beyond ``type`` and ``seq``).
EVENT_SCHEMAS: dict[str, frozenset[str]] = {
    # One frame finished the select -> evaluate -> update loop.
    "frame-completed": frozenset(
        {
            "algorithm",
            "iteration",
            "frame_index",
            "selected",
            "realized",
            "charged_ms",
            "est_score",
            "true_score",
            "degraded",
        }
    ),
    # A circuit breaker changed state (closed/open/half-open).
    "circuit-transition": frozenset(
        {"model", "from_state", "to_state", "batch"}
    ),
    # A frame was served by a degraded ensemble or abandoned outright.
    "degradation": frozenset(
        {
            "algorithm",
            "iteration",
            "frame_index",
            "kind",
            "selected",
            "realized",
            "failed_models",
        }
    ),
    # A budgeted run finished (exhausted or ran out of frames).
    "budget": frozenset(
        {"algorithm", "budget_ms", "spent_ms", "frames", "exhausted"}
    ),
    # Opening a materialized store skipped a torn or corrupt record.
    "matstore-corrupt-record": frozenset({"segment", "error"}),
}

#: Allowed values for the ``kind`` field of ``degradation`` events.
DEGRADATION_KINDS = ("degraded", "abandoned")

#: Bound on retained events; beyond it the oldest are dropped.
DEFAULT_MAX_EVENTS = 100_000


class RunEventLog:
    """Bounded, thread-safe, schema-validated event sink."""

    def __init__(self, max_events: int = DEFAULT_MAX_EVENTS) -> None:
        if max_events <= 0:
            raise ValueError("max_events must be positive")
        self._lock = threading.Lock()
        self._events: deque[dict[str, Any]] = deque(maxlen=max_events)
        self._seq = 0
        self._dropped = 0

    def emit(self, event_type: str, **fields: Any) -> None:
        """Record one event; the field set must match the schema exactly."""
        schema = EVENT_SCHEMAS.get(event_type)
        if schema is None:
            raise ValueError(
                f"unknown event type {event_type!r}; "
                f"known: {sorted(EVENT_SCHEMAS)}"
            )
        given = frozenset(fields)
        if given != schema:
            missing = sorted(schema - given)
            unknown = sorted(given - schema)
            problems = []
            if missing:
                problems.append(f"missing fields {missing}")
            if unknown:
                problems.append(f"unknown fields {unknown}")
            raise ValueError(
                f"event {event_type!r}: " + "; ".join(problems)
            )
        if event_type == "degradation" and fields["kind"] not in DEGRADATION_KINDS:
            raise ValueError(
                f"degradation kind must be one of {DEGRADATION_KINDS}, "
                f"got {fields['kind']!r}"
            )
        with self._lock:
            self._seq += 1
            if len(self._events) == self._events.maxlen:
                self._dropped += 1
            self._events.append({"type": event_type, "seq": self._seq, **fields})

    @property
    def dropped(self) -> int:
        with self._lock:
            return self._dropped

    def events(self, event_type: str | None = None) -> list[dict[str, Any]]:
        """Retained events in emission order, optionally filtered by type."""
        with self._lock:
            items = list(self._events)
        if event_type is None:
            return items
        return [e for e in items if e["type"] == event_type]
