"""Metrics: counters, gauges, fixed-bucket histograms and their snapshots.

The registry records *logical* quantities only — frame counts, retry
counts, simulated-millisecond latencies.  Wall-clock durations belong in
spans (:mod:`repro.obs.tracer`), never in the registry, so two runs of
the same seeded experiment produce **identical** snapshots.  Snapshots
are immutable views of the registry at the moment they were taken.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, TypeVar, cast

__all__ = [
    "DEFAULT_BUCKETS",
    "LabelSet",
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramSnapshot",
    "MetricsSnapshot",
    "MetricsRegistry",
]

#: ``(name, sorted (key, value) pairs)`` — the identity of one time series.
LabelSet = tuple[tuple[str, str], ...]
MetricKey = tuple[str, LabelSet]
#: ``(kind, name, label names in call order, their str() values)`` — how
#: one call site spells a series; see :meth:`MetricsRegistry._resolve`.
_Spelling = tuple[str, str, tuple[str, ...], tuple[str, ...]]

#: Default histogram upper bounds (simulated milliseconds); observations
#: above the last bound land in the implicit ``+Inf`` bucket.
DEFAULT_BUCKETS: tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0,
    250.0, 500.0, 1_000.0, 2_500.0, 5_000.0, 10_000.0,
)


def labelset(labels: Mapping[str, object]) -> LabelSet:
    """Normalize a label mapping into a canonical, hashable key."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (>= 0) to the counter."""
        if amount < 0:
            raise ValueError("counters only go up; use a gauge instead")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """A value that can go up and down (last write wins)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, amount: float) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


@dataclass(frozen=True)
class HistogramSnapshot:
    """Immutable bucketized distribution.

    Attributes:
        buckets: Finite upper bounds, strictly increasing.
        counts: Per-bucket observation counts; one longer than
            ``buckets`` — the final slot is the ``+Inf`` overflow bucket.
        total: Sum of all observed values.
        count: Number of observations.
    """

    buckets: tuple[float, ...]
    counts: tuple[int, ...]
    total: float
    count: int

    def as_dict(self) -> dict[str, Any]:
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "sum": self.total,
            "count": self.count,
        }


class Histogram:
    """Fixed-bucket histogram (buckets chosen at creation, never resized)."""

    __slots__ = ("_lock", "buckets", "_counts", "_total", "_count")

    def __init__(self, buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        if not buckets:
            raise ValueError("a histogram needs at least one bucket bound")
        if any(b >= a for b, a in zip(buckets, buckets[1:])):
            raise ValueError("bucket bounds must be strictly increasing")
        self._lock = threading.Lock()
        self.buckets = tuple(float(b) for b in buckets)
        self._counts = [0] * (len(buckets) + 1)
        self._total = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        """Record one observation (``value <= bound`` lands in a bucket)."""
        index = bisect_left(self.buckets, value)
        with self._lock:
            self._counts[index] += 1
            self._total += value
            self._count += 1

    def snapshot(self) -> HistogramSnapshot:
        with self._lock:
            return HistogramSnapshot(
                buckets=self.buckets,
                counts=tuple(self._counts),
                total=self._total,
                count=self._count,
            )


def _labels_dict(labels: LabelSet) -> dict[str, str]:
    return dict(labels)


@dataclass(frozen=True)
class MetricsSnapshot:
    """Immutable view of a :class:`MetricsRegistry`.

    Equality is structural: two runs that performed the same logical work
    produce equal snapshots, whatever their wall-clock timing.
    """

    counters: Mapping[MetricKey, float] = field(
        default_factory=lambda: MappingProxyType({})
    )
    gauges: Mapping[MetricKey, float] = field(
        default_factory=lambda: MappingProxyType({})
    )
    histograms: Mapping[MetricKey, HistogramSnapshot] = field(
        default_factory=lambda: MappingProxyType({})
    )
    descriptions: Mapping[str, str] = field(
        default_factory=lambda: MappingProxyType({})
    )

    # -- convenience accessors (tests, CLI summaries) ---------------------

    def counter_value(self, name: str, **labels: object) -> float:
        """The counter's value, 0.0 if the series was never written."""
        return self.counters.get((name, labelset(labels)), 0.0)

    def gauge_value(self, name: str, **labels: object) -> float:
        return self.gauges.get((name, labelset(labels)), 0.0)

    def histogram_snapshot(
        self, name: str, **labels: object
    ) -> HistogramSnapshot | None:
        return self.histograms.get((name, labelset(labels)))

    def counter_total(self, name: str) -> float:
        """Sum of one counter across all label sets."""
        return sum(
            value for (n, _), value in self.counters.items() if n == name
        )

    def as_dict(self) -> dict[str, Any]:
        """A deterministic (sorted) JSON-serializable view."""

        def series(key: MetricKey) -> dict[str, Any]:
            name, labels = key
            return {"name": name, "labels": _labels_dict(labels)}

        return {
            "counters": [
                {**series(key), "value": self.counters[key]}
                for key in sorted(self.counters)
            ],
            "gauges": [
                {**series(key), "value": self.gauges[key]}
                for key in sorted(self.gauges)
            ],
            "histograms": [
                {**series(key), **self.histograms[key].as_dict()}
                for key in sorted(self.histograms)
            ],
            "descriptions": dict(sorted(self.descriptions.items())),
        }


_M = TypeVar("_M", Counter, Gauge, Histogram)


class MetricsRegistry:
    """Thread-safe home of every live counter, gauge and histogram.

    Series are identified by ``(name, labels)``; the first caller of a
    name may attach a ``description`` (exported as Prometheus ``# HELP``).
    All bookkeeping is instance-level and bounded by the (small, static)
    set of instrumentation sites — there is no per-frame growth.

    A series is resolved once per spelling: the first call that names it
    with given label names (in call order) and ``str()`` values sorts the
    labels under the lock, and later calls read the resolved series from
    a memo without either.  Per-frame call sites can therefore go through
    the facade's ``count``/``observe`` on every event.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[MetricKey, Counter] = {}
        self._gauges: dict[MetricKey, Gauge] = {}
        self._histograms: dict[MetricKey, Histogram] = {}
        self._descriptions: dict[str, str] = {}
        self._resolved: dict[_Spelling, Counter | Gauge | Histogram] = {}

    def _describe(self, name: str, description: str) -> None:
        if description and name not in self._descriptions:
            self._descriptions[name] = description

    def _resolve(
        self,
        series: dict[MetricKey, _M],
        kind: str,
        name: str,
        description: str,
        labels: dict[str, object],
        new: Callable[[], _M],
    ) -> _M:
        """The series ``(name, labels)`` of one kind, created on first use.

        The memo key keeps label values as ``str()`` reads them, so
        ``n=1`` and ``n="1"`` share a series while ``n=True`` does not.
        A hit skips the lock unless it brings a name's first description.
        A miss stores the canonical series, so threads racing on a new
        series all get the same one.
        """
        spelling = (kind, name, tuple(labels), tuple(map(str, labels.values())))
        metric = self._resolved.get(spelling)
        if metric is None or (description and name not in self._descriptions):
            with self._lock:
                self._describe(name, description)
                key = (name, labelset(labels))
                metric = series.get(key)
                if metric is None:
                    metric = series[key] = new()
                self._resolved[spelling] = metric
        return cast(_M, metric)

    def counter(
        self, name: str, description: str = "", **labels: object
    ) -> Counter:
        return self._resolve(
            self._counters, "counter", name, description, labels, Counter
        )

    def gauge(self, name: str, description: str = "", **labels: object) -> Gauge:
        return self._resolve(
            self._gauges, "gauge", name, description, labels, Gauge
        )

    def histogram(
        self,
        name: str,
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
        description: str = "",
        **labels: object,
    ) -> Histogram:
        return self._resolve(
            self._histograms,
            "histogram",
            name,
            description,
            labels,
            lambda: Histogram(buckets),
        )

    def snapshot(self) -> MetricsSnapshot:
        """An immutable point-in-time view of every series."""
        with self._lock:
            return MetricsSnapshot(
                counters=MappingProxyType(
                    {key: c.value for key, c in self._counters.items()}
                ),
                gauges=MappingProxyType(
                    {key: g.value for key, g in self._gauges.items()}
                ),
                histograms=MappingProxyType(
                    {key: h.snapshot() for key, h in self._histograms.items()}
                ),
                descriptions=MappingProxyType(dict(self._descriptions)),
            )
