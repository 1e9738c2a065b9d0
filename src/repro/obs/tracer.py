"""Span tracing: nested spans with simulated-clock and wall-clock durations.

A span measures one unit of work (a frame, a detector call, a fusion
pass).  Spans carry **two** durations because the repo keeps two notions
of time apart:

* ``sim_ms`` — simulated milliseconds, the deterministic cost model that
  the experiments bill against.  Identical across runs of the same
  seed.
* ``wall_ms`` — real elapsed time from an injected timer.  Scheduling-
  dependent, never used for logical assertions; useful for profiling.

The tracer never reads the wall clock itself (lint rule RPR002): callers
inject a ``timer`` — the CLI wires :func:`repro.engine.backends.wall_timer`
— and with ``timer=None`` every span records ``wall_ms=0.0``, which keeps
unit tests deterministic.

Nesting is tracked per thread with :class:`threading.local`, so spans
opened on different threads parent correctly within their own thread
without cross-thread interleaving.  Finished spans live in a bounded deque; when
the bound is hit the oldest spans are dropped and counted, never grown
without limit (lint rule RPR003).
"""

from __future__ import annotations

import itertools
import threading
from collections import deque
from collections.abc import Callable
from types import TracebackType
from typing import Any

__all__ = ["Span", "Tracer", "NULL_SPAN"]

#: Bound on retained finished spans; beyond it the oldest are dropped.
DEFAULT_MAX_SPANS = 100_000


class Span:
    """One traced operation.  Mutable until closed by its context manager."""

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "attributes",
        "wall_ms",
        "sim_ms",
        "status",
    )

    def __init__(
        self,
        name: str,
        span_id: int,
        parent_id: int | None,
        attributes: dict[str, Any] | None = None,
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.attributes: dict[str, Any] = attributes or {}
        self.wall_ms = 0.0
        self.sim_ms = 0.0
        self.status = "ok"

    def set(self, **attributes: Any) -> None:
        """Attach attributes to the span."""
        self.attributes.update(attributes)

    def set_sim_ms(self, sim_ms: float) -> None:
        """Record the simulated-clock duration of the spanned work."""
        self.sim_ms = sim_ms

    def set_status(self, status: str) -> None:
        self.status = status

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "wall_ms": self.wall_ms,
            "sim_ms": self.sim_ms,
            "status": self.status,
            "attributes": dict(self.attributes),
        }


class _NullSpan(Span):
    """Shared inert span handed out when tracing is off; mutators no-op
    so one instance can be reused by every caller concurrently."""

    def __init__(self) -> None:
        super().__init__("null", span_id=0, parent_id=None)

    def set(self, **attributes: Any) -> None:
        return None

    def set_sim_ms(self, sim_ms: float) -> None:
        return None

    def set_status(self, status: str) -> None:
        return None


#: Singleton inert span — ``Tracer`` methods on a disabled facade return it.
NULL_SPAN: Span = _NullSpan()


class _SpanContext:
    """Hand-rolled context manager behind :meth:`Tracer.span`.

    This sits on the per-frame hot path (six spans per frame), where
    ``contextlib.contextmanager``'s generator machinery is measurable
    against the < 10% trace-overhead gate; a plain class with
    ``__slots__`` is several times cheaper to enter and exit.
    """

    __slots__ = ("_tracer", "_name", "_attributes", "_span", "_started")

    def __init__(
        self, tracer: Tracer, name: str, attributes: dict[str, Any] | None
    ) -> None:
        self._tracer = tracer
        self._name = name
        self._attributes = attributes
        self._span: Span | None = None
        self._started = 0.0

    def __enter__(self) -> Span:
        tracer = self._tracer
        stack = tracer._stack()
        parent = stack[-1] if stack else None
        span = Span(
            self._name,
            span_id=next(tracer._ids),
            parent_id=parent.span_id if parent else None,
            attributes=self._attributes,
        )
        self._span = span
        if tracer._timer is not None:
            self._started = tracer._timer()
        stack.append(span)
        return span

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        tracer = self._tracer
        span = self._span
        assert span is not None  # __exit__ is only reachable after __enter__
        if exc_type is not None:
            span.status = "error"
        if tracer._timer is not None:
            span.wall_ms = (tracer._timer() - self._started) * 1000.0
        tracer._stack().pop()
        tracer._record(span)


class Tracer:
    """Collects nested spans.

    Args:
        timer: Zero-arg callable returning seconds (e.g.
            ``repro.engine.backends.wall_timer()``'s clock); ``None``
            records ``wall_ms = 0.0`` for every span.
        max_spans: Retention bound for finished spans; the oldest are
            dropped (and counted in :attr:`dropped`) past the bound.
    """

    def __init__(
        self,
        timer: Callable[[], float] | None = None,
        max_spans: int = DEFAULT_MAX_SPANS,
    ) -> None:
        if max_spans <= 0:
            raise ValueError("max_spans must be positive")
        self._timer = timer
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._finished: deque[Span] = deque(maxlen=max_spans)
        self._dropped = 0

    # -- span stack (per thread) ------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        """The innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    # -- recording --------------------------------------------------------

    def span(self, name: str, **attributes: Any) -> _SpanContext:
        """Open a nested span; closes (and records) it on exit.

        The span itself (its id, its parent) materializes on ``__enter__``,
        so a context may be created eagerly and entered later.
        """
        return _SpanContext(self, name, attributes or None)

    def add_span(
        self,
        name: str,
        wall_ms: float = 0.0,
        sim_ms: float = 0.0,
        status: str = "ok",
        **attributes: Any,
    ) -> Span:
        """Record an already-measured leaf span under the current span
        (e.g. a detector job whose wall time was captured by the backend)."""
        parent = self.current()
        span = Span(
            name,
            span_id=next(self._ids),
            parent_id=parent.span_id if parent else None,
            attributes=dict(attributes) if attributes else None,
        )
        span.wall_ms = wall_ms
        span.sim_ms = sim_ms
        span.status = status
        self._record(span)
        return span

    def _record(self, span: Span) -> None:
        with self._lock:
            if len(self._finished) == self._finished.maxlen:
                self._dropped += 1
            self._finished.append(span)

    # -- inspection -------------------------------------------------------

    @property
    def dropped(self) -> int:
        """Spans discarded because the retention bound was exceeded."""
        with self._lock:
            return self._dropped

    def finished(self) -> list[Span]:
        """Finished spans, oldest first (closed-before-opened ordering:
        children precede their parents)."""
        with self._lock:
            return list(self._finished)
