"""The bounded, instrumented evaluation store.

:class:`EvaluationStore` replaces the five unbounded dicts the old
``EvaluationCache`` carried (detector outputs, REF outputs, fused boxes,
estimated AP, true AP) with a single capacity-bounded, LRU-evicting,
thread-safe map keyed by ``(stage, key)``.  Entries from every stage share
one recency order, so the bound holds globally no matter how a workload
splits across stages.

Eviction is always *safe*: every cached value is a deterministic function
of its key (detectors are deterministic per ``(detector, frame)``), so a
miss after eviction merely recomputes — results never change, only wall
time.  Simulated-clock billing is unaffected either way, because billing
reads the simulated ``inference_time_ms`` carried *inside* the cached
outputs, not the wall time spent producing them.

The store keeps hit/miss/eviction counters and per-stage compute timing,
exposed as an immutable :class:`CacheStats` snapshot — the instrumentation
the ROADMAP's "as fast as the hardware allows" goal needs to verify that
caching actually works at scale.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Callable, Hashable, Mapping, Sequence
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Protocol, runtime_checkable

from repro.engine.backends import wall_timer
from repro.obs import NULL_OBS, Counter, Observability

__all__ = [
    "StageStats",
    "CacheStats",
    "PersistentTier",
    "EvaluationStore",
    "DEFAULT_CAPACITY",
]

#: Default entry bound.  A 600-frame, 31-ensemble trial needs ~60k entries
#: across all stages; 2**18 leaves generous headroom for sweeps that share
#: a store across budget/weight points while still bounding memory.
DEFAULT_CAPACITY = 262_144


@dataclass(frozen=True)
class StageStats:
    """Counters for one pipeline stage (e.g. ``"detector"``, ``"fused"``).

    Attributes:
        lookups: Number of reads issued against this stage.
        hits: Reads answered from the store.
        misses: Reads that required (re)computation.
        compute_ms: Wall-clock milliseconds spent computing missed values.
            This is *measurement* time, never simulated-clock time.
    """

    lookups: int = 0
    hits: int = 0
    misses: int = 0
    compute_ms: float = 0.0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


@runtime_checkable
class PersistentTier(Protocol):
    """A disk-backed second tier an :class:`EvaluationStore` may consult.

    A tier persists *deterministic* stage values across processes (the
    query layer's materialized detection store implements this protocol).
    The in-memory store consults it on a miss and writes computed values
    through to it; a tier hit is bit-identical to a recompute because
    every cached value is a pure function of its key.

    Implementations must be thread-safe: the store calls them under its
    own lock from whatever threads use the store.
    """

    def accepts(self, stage: str) -> bool:
        """Whether this tier persists entries of ``stage``."""
        ...

    def load(self, stage: str, key: Hashable) -> Any | None:
        """The persisted value, or ``None`` if absent."""
        ...

    def store(self, stage: str, key: Hashable, value: Any) -> None:
        """Persist a computed value (idempotent on duplicate keys)."""
        ...


@dataclass(frozen=True)
class CacheStats:
    """Immutable snapshot of an :class:`EvaluationStore`'s instrumentation.

    Invariant: ``hits + misses == lookups``, both in total and per stage.

    Attributes:
        capacity: The store's entry bound.
        size: Entries currently held.
        lookups / hits / misses: Totals across all stages.
        evictions: Entries dropped by the LRU policy since creation
            (or the last :meth:`EvaluationStore.clear`).
        tier_hits: Reads (lookups or membership tests) answered by
            promoting an entry from the attached persistent tier; 0 when
            no tier is attached.
        stages: Per-stage :class:`StageStats`, keyed by stage name.
    """

    capacity: int
    size: int
    lookups: int
    hits: int
    misses: int
    evictions: int
    stages: Mapping[str, StageStats]
    tier_hits: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict[str, Any]:
        """A JSON-serializable view (see :mod:`repro.runner.io`)."""
        return {
            "capacity": self.capacity,
            "size": self.size,
            "lookups": self.lookups,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "tier_hits": self.tier_hits,
            "hit_rate": self.hit_rate,
            "stages": {
                name: {
                    "lookups": s.lookups,
                    "hits": s.hits,
                    "misses": s.misses,
                    "compute_ms": s.compute_ms,
                    "hit_rate": s.hit_rate,
                }
                for name, s in self.stages.items()
            },
        }


class _MutableStageStats:
    """Internal mutable accumulator behind :class:`StageStats`.

    ``counters`` holds the stage's ``repro_cache_lookups_total`` and
    ``repro_cache_hits_total`` series once its first lookup resolves
    them with metrics on.  They are the store's only held metric
    handles: lookups are its hottest instrumented path, where even the
    registry's memoized resolution costs measurable CPU.
    """

    __slots__ = ("lookups", "hits", "misses", "compute_ms", "counters")

    def __init__(self) -> None:
        self.lookups = 0
        self.hits = 0
        self.misses = 0
        self.compute_ms = 0.0
        self.counters: tuple[Counter, Counter] | None = None

    def freeze(self) -> StageStats:
        return StageStats(
            lookups=self.lookups,
            hits=self.hits,
            misses=self.misses,
            compute_ms=self.compute_ms,
        )


class EvaluationStore:
    """Bounded LRU memoization shared across the environments of one trial.

    Valid to share only between environments with identical detectors,
    reference, fusion method and IoU threshold; the factory helpers in
    :mod:`repro.runner.experiment` enforce this by construction.

    Thread safety: all bookkeeping happens under an internal lock, while
    value computation (:meth:`get_or_compute`) runs *outside* it, so slow
    inferences never serialize unrelated readers.  If two threads race on
    the same missing key both compute it (deterministically identical
    values) and the first insert wins — correctness is unaffected.

    Compute time on misses is measured with the sanctioned
    :func:`~repro.engine.backends.wall_timer`.  A persistent second tier
    is attached with :meth:`attach_tier`.

    Args:
        capacity: Maximum number of entries across all stages (>= 1).
        obs: Observability facade; records per-stage lookup/hit counters
            and the hit-streak histogram (length of consecutive-hit runs,
            observed whenever a miss breaks a streak).  The default no-op
            facade keeps uninstrumented stores zero-cost.
    """

    def __init__(
        self, capacity: int = DEFAULT_CAPACITY, obs: Observability = NULL_OBS
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self._capacity = capacity
        self._obs = obs
        self._tier: PersistentTier | None = None
        self._tier_hits = 0
        self._lock = threading.RLock()
        self._entries: OrderedDict[tuple[str, Hashable], Any] = OrderedDict()
        self._stages: dict[str, _MutableStageStats] = {}
        self._evictions = 0
        self._hit_streak = 0

    @property
    def capacity(self) -> int:
        return self._capacity

    def attach_tier(self, tier: PersistentTier | None) -> None:
        """Attach (or detach, with ``None``) the persistent second tier.

        Attaching mid-run is safe: already-cached entries stay in memory;
        future misses consult the tier and future inserts write through.
        """
        with self._lock:
            self._tier = tier

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def _stage(self, stage: str) -> _MutableStageStats:
        stats = self._stages.get(stage)
        if stats is None:
            stats = self._stages[stage] = _MutableStageStats()
        return stats

    def _lookup_stage(self, stage: str) -> _MutableStageStats:
        """The stage's record, its lookup counters resolved at the first
        lookup when metrics are on; caller holds the lock."""
        stats = self._stage(stage)
        registry = self._obs.metrics
        if stats.counters is None and registry is not None:
            stats.counters = (
                registry.counter(
                    "repro_cache_lookups_total",
                    "Evaluation-store lookups, by stage",
                    stage=stage,
                ),
                registry.counter(
                    "repro_cache_hits_total",
                    "Evaluation-store hits, by stage",
                    stage=stage,
                ),
            )
        return stats

    def _insert_locked(self, full_key: tuple[str, Hashable], value: Any) -> None:
        """Insert an entry and enforce the bound; caller holds the lock."""
        self._entries[full_key] = value
        while len(self._entries) > self._capacity:
            self._entries.popitem(last=False)
            self._evictions += 1

    def _tier_load_locked(self, stage: str, key: Hashable) -> Any | None:
        """Consult the persistent tier and promote its value into memory.

        Returns the promoted value, or ``None`` when no tier is attached,
        the tier does not persist ``stage``, or the entry is absent.
        Caller holds the lock and has already established a memory miss.
        """
        if self._tier is None or not self._tier.accepts(stage):
            return None
        value = self._tier.load(stage, key)
        if value is None:
            return None
        self._tier_hits += 1
        self._insert_locked((stage, key), value)
        return value

    def _get_locked(
        self, stage: str, key: Hashable, stats: _MutableStageStats
    ) -> Any | None:
        """One counted lookup; caller holds the lock."""
        full_key = (stage, key)
        stats.lookups += 1
        counters = stats.counters
        if counters is not None:
            counters[0].inc()
        value: Any | None
        if full_key in self._entries:
            self._entries.move_to_end(full_key)
            value = self._entries[full_key]
        else:
            value = self._tier_load_locked(stage, key)
        if value is not None:
            stats.hits += 1
            self._hit_streak += 1
            if counters is not None:
                counters[1].inc()
            return value
        stats.misses += 1
        if self._hit_streak and self._obs.metrics_on:
            self._obs.observe(
                "repro_cache_hit_streak",
                float(self._hit_streak),
                description="Consecutive-hit run lengths, ended by a miss",
            )
        self._hit_streak = 0
        return None

    def get(self, stage: str, key: Hashable) -> Any | None:
        """Look up a value, counting a hit or miss; ``None`` if absent.

        A memory miss consults the attached persistent tier (if any); a
        tier hit promotes the value into memory and counts as a hit.
        Cached values are never ``None`` (:meth:`put` rejects it), so a
        ``None`` return unambiguously means *absent*.
        """
        with self._lock:
            return self._get_locked(stage, key, self._lookup_stage(stage))

    def get_many(
        self, stage: str, keys: Sequence[Hashable]
    ) -> list[Any | None]:
        """Batched :meth:`get` over one stage: one lock acquisition.

        Counting semantics are identical to issuing the gets one at a
        time (each key is one lookup, one hit or miss, in key order) —
        only the per-key lock/stat-resolution overhead is amortized.
        This is the warm-hit fast path for callers that read a whole
        frame's worth of entries at once.
        """
        with self._lock:
            stats = self._lookup_stage(stage)
            return [self._get_locked(stage, key, stats) for key in keys]

    def put(
        self, stage: str, key: Hashable, value: Any, compute_ms: float = 0.0
    ) -> None:
        """Insert a computed value, evicting LRU entries past capacity.

        Args:
            stage: Stage namespace of the entry.
            key: Hashable key within the stage.
            value: The computed value (must not be ``None``).
            compute_ms: Wall-clock ms it took to compute, accumulated into
                the stage's timing counters.
        """
        self._check_put(value, compute_ms)
        with self._lock:
            self._put_locked(stage, key, value, compute_ms)

    @staticmethod
    def _check_put(value: Any, compute_ms: float) -> None:
        if value is None:
            raise ValueError("EvaluationStore cannot cache None values")
        if compute_ms < 0:
            raise ValueError("compute_ms must be non-negative")

    def _put_locked(
        self, stage: str, key: Hashable, value: Any, compute_ms: float
    ) -> None:
        """One insert of a value :meth:`_check_put` accepted; caller holds
        the lock."""
        self._stage(stage).compute_ms += compute_ms
        full_key = (stage, key)
        if full_key in self._entries:
            # A racing thread inserted first; keep the existing entry
            # (values are deterministic, so they are identical).
            self._entries.move_to_end(full_key)
            return
        self._insert_locked(full_key, value)
        if self._tier is not None and self._tier.accepts(stage):
            # Write through so the entry survives this process.  The
            # tier deduplicates keys itself; values are deterministic,
            # so duplicate stores are harmless either way.
            self._tier.store(stage, key, value)

    def get_or_compute(
        self, stage: str, key: Hashable, compute: Callable[[], Any]
    ) -> Any:
        """Return the cached value, computing (and timing) it on a miss."""
        value = self.get(stage, key)
        if value is not None:
            return value
        start = wall_timer()
        value = compute()
        elapsed_ms = (wall_timer() - start) * 1000.0
        self.put(stage, key, value, compute_ms=elapsed_ms)
        return value

    def contains(self, stage: str, key: Hashable) -> bool:
        """Membership test that does *not* count as a lookup.

        Consults (and promotes from) the persistent tier, so callers that
        gate work on membership — e.g. the environment's job planner —
        see tier-resident entries as present and skip recomputation.
        """
        with self._lock:
            return self._contains_locked(stage, key)

    def _contains_locked(self, stage: str, key: Hashable) -> bool:
        """One uncounted membership test; caller holds the lock."""
        return (stage, key) in self._entries or (
            self._tier_load_locked(stage, key) is not None
        )

    def contains_many(
        self, stage: str, keys: Sequence[Hashable]
    ) -> list[bool]:
        """Batched :meth:`contains` over one stage: one lock acquisition.

        Used by the environment's job planner to test a whole frame's
        detector entries (and by multi-frame prefetch to test many
        frames) without taking the store lock once per model.
        """
        with self._lock:
            return [self._contains_locked(stage, key) for key in keys]

    def put_many(
        self,
        stage: str,
        items: Sequence[tuple[Hashable, Any, float]],
    ) -> None:
        """Batched :meth:`put` over one stage: one lock acquisition.

        Args:
            items: ``(key, value, compute_ms)`` triples, inserted in
                order with :meth:`put`'s exact semantics (``None``
                values rejected, racing inserts keep the first value,
                write-through to the persistent tier).
        """
        for _, value, compute_ms in items:
            self._check_put(value, compute_ms)
        with self._lock:
            for key, value, compute_ms in items:
                self._put_locked(stage, key, value, compute_ms)

    def stats(self) -> CacheStats:
        """An immutable snapshot of counters and per-stage timing."""
        with self._lock:
            stages = {
                name: stats.freeze() for name, stats in self._stages.items()
            }
            return CacheStats(
                capacity=self._capacity,
                size=len(self._entries),
                lookups=sum(s.lookups for s in stages.values()),
                hits=sum(s.hits for s in stages.values()),
                misses=sum(s.misses for s in stages.values()),
                evictions=self._evictions,
                stages=MappingProxyType(stages),
                tier_hits=self._tier_hits,
            )

    def clear(self) -> None:
        """Drop all entries and reset every counter."""
        with self._lock:
            self._entries.clear()
            self._stages.clear()
            self._evictions = 0
            self._hit_streak = 0
            self._tier_hits = 0

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"EvaluationStore(size={len(self._entries)}, "
                f"capacity={self._capacity}, evictions={self._evictions})"
            )
