"""Tests for the bounded, instrumented evaluation store."""

from __future__ import annotations

import threading

import pytest

from repro.core.environment import DetectionEnvironment
from repro.engine.store import CacheStats, DEFAULT_CAPACITY, EvaluationStore
from repro.obs import Observability


class TestBasics:
    def test_default_capacity(self):
        store = EvaluationStore()
        assert store.capacity == DEFAULT_CAPACITY
        assert len(store) == 0

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            EvaluationStore(capacity=0)
        with pytest.raises(ValueError):
            EvaluationStore(capacity=-5)

    def test_put_get_roundtrip(self):
        store = EvaluationStore(capacity=10)
        store.put("detector", ("f0", "m0"), "out")
        assert store.get("detector", ("f0", "m0")) == "out"
        assert len(store) == 1

    def test_none_values_rejected(self):
        store = EvaluationStore(capacity=10)
        with pytest.raises(ValueError):
            store.put("detector", "k", None)

    def test_negative_compute_ms_rejected(self):
        store = EvaluationStore(capacity=10)
        with pytest.raises(ValueError):
            store.put("detector", "k", "v", compute_ms=-1.0)

    def test_stages_are_namespaced(self):
        store = EvaluationStore(capacity=10)
        store.put("detector", "k", "a")
        store.put("reference", "k", "b")
        assert store.get("detector", "k") == "a"
        assert store.get("reference", "k") == "b"

    def test_contains_does_not_count_as_lookup(self):
        store = EvaluationStore(capacity=10)
        store.put("detector", "k", "v")
        assert store.contains("detector", "k")
        assert not store.contains("detector", "absent")
        assert store.stats().lookups == 0


class TestEviction:
    def test_capacity_is_enforced(self):
        store = EvaluationStore(capacity=3)
        for i in range(10):
            store.put("s", i, f"v{i}")
        assert len(store) == 3
        assert store.stats().evictions == 7

    def test_lru_order(self):
        store = EvaluationStore(capacity=2)
        store.put("s", "a", 1)
        store.put("s", "b", 2)
        # Touch "a" so "b" becomes least-recently-used.
        assert store.get("s", "a") == 1
        store.put("s", "c", 3)
        assert store.contains("s", "a")
        assert not store.contains("s", "b")
        assert store.contains("s", "c")

    def test_eviction_then_recompute_is_correct(self):
        """A miss after eviction recomputes the same deterministic value."""
        store = EvaluationStore(capacity=2)
        compute_count = {"n": 0}

        def make(i):
            def compute():
                compute_count["n"] += 1
                return i * i

            return compute

        for i in range(1, 6):
            assert store.get_or_compute("s", i, make(i)) == i * i
        assert compute_count["n"] == 5
        # 1..3 were evicted; recomputing yields identical values.
        assert store.get_or_compute("s", 1, make(1)) == 1
        assert compute_count["n"] == 6

    def test_evicted_environment_results_unchanged(
        self, detector_pool, lidar, small_video
    ):
        """A store of any size, down to one entry, changes no result.

        Capacities up to m evict member outputs before the frame is
        scored; health must come from the frame's own outputs, not from
        what the store still holds.
        """
        frames = small_video.frames[:6]

        def run(store):
            env = DetectionEnvironment(detector_pool, lidar, store=store)
            batches = []
            for frame in frames:
                batch = env.evaluate(frame, env.all_ensembles, charge=True)
                batches.append(
                    (
                        batch.failed_models,
                        {
                            k: (v.realized_key, v.est_score, v.true_score)
                            for k, v in batch.evaluations.items()
                        },
                    )
                )
            return batches, env.clock.snapshot()

        roomy_batches, roomy_clock = run(EvaluationStore())
        assert all(failed == () for failed, _ in roomy_batches)
        for capacity in range(1, len(detector_pool) + 2):
            tiny_store = EvaluationStore(capacity=capacity)
            tiny_batches, tiny_clock = run(tiny_store)
            assert tiny_batches == roomy_batches, f"capacity={capacity}"
            assert tiny_clock == roomy_clock, f"capacity={capacity}"
            assert tiny_store.stats().evictions > 0
            assert len(tiny_store) <= capacity


class TestStats:
    def test_hits_plus_misses_equals_lookups(self):
        store = EvaluationStore(capacity=8)
        for i in range(12):
            store.get_or_compute("s", i % 5, lambda: "v")
        stats = store.stats()
        assert stats.hits + stats.misses == stats.lookups
        for stage in stats.stages.values():
            assert stage.hits + stage.misses == stage.lookups

    @pytest.mark.parametrize("obs_level", ["off", "trace"])
    def test_invariant_holds_after_environment_run(
        self, detector_pool, lidar, small_video, obs_level
    ):
        obs = Observability(level=obs_level)
        store = EvaluationStore(obs=obs)
        env = DetectionEnvironment(detector_pool, lidar, store=store, obs=obs)
        # Twice over the same frames: the second pass reads stored values.
        for _ in range(2):
            for frame in small_video.frames[:5]:
                env.evaluate(frame, env.all_ensembles, charge=True)
        stats = store.stats()
        assert isinstance(stats, CacheStats)
        assert stats.hits + stats.misses == stats.lookups
        assert stats.lookups > 0
        assert stats.hits > 0
        assert set(stats.stages) >= {"detector", "reference", "fused"}
        if obs_level == "trace":
            # Misses stay countable (lookups - hits) with no span per miss.
            snapshot = obs.snapshot()
            for stage, stage_stats in stats.stages.items():
                assert snapshot.counter_value(
                    "repro_cache_lookups_total", stage=stage
                ) == stage_stats.lookups
                assert snapshot.counter_value(
                    "repro_cache_hits_total", stage=stage
                ) == stage_stats.hits
            names = {span.name for span in obs.tracer.finished()}
            assert "cache-miss" not in names

    def test_stage_series_appear_at_first_lookup(self):
        obs = Observability(level="metrics")
        store = EvaluationStore(obs=obs)
        store.put("detector", "k", "v")
        store.put_many("fused", [("k", "v", 0.0)])
        assert obs.snapshot().counters == {}
        store.get("detector", "k")
        store.get_many("fused", ["k", "absent"])
        store.clear()
        store.get("detector", "k")
        snapshot = obs.snapshot()
        assert sorted(snapshot.counters) == [
            ("repro_cache_hits_total", (("stage", "detector"),)),
            ("repro_cache_hits_total", (("stage", "fused"),)),
            ("repro_cache_lookups_total", (("stage", "detector"),)),
            ("repro_cache_lookups_total", (("stage", "fused"),)),
        ]
        for stage in ("detector", "fused"):
            lookups = ("repro_cache_lookups_total", (("stage", stage),))
            hits = ("repro_cache_hits_total", (("stage", stage),))
            assert snapshot.counters[lookups] == 2
            assert snapshot.counters[hits] == 1

    def test_per_stage_compute_timing(self):
        store = EvaluationStore(capacity=8)
        store.get_or_compute("slow", "k", lambda: sum(range(1000)))
        assert store.stats().stages["slow"].compute_ms >= 0.0

    def test_hit_rate(self):
        store = EvaluationStore(capacity=8)
        assert store.stats().hit_rate == 0.0
        store.put("s", "k", "v")
        store.get("s", "k")
        store.get("s", "k")
        store.get("s", "absent")
        stats = store.stats()
        assert stats.hit_rate == pytest.approx(2 / 3)

    def test_as_dict_is_json_shaped(self):
        import json

        store = EvaluationStore(capacity=8)
        store.get_or_compute("s", "k", lambda: "v")
        payload = store.stats().as_dict()
        # Round-trips through JSON without custom encoders.
        decoded = json.loads(json.dumps(payload))
        assert decoded["capacity"] == 8
        assert decoded["stages"]["s"]["misses"] == 1

    def test_clear_resets_everything(self):
        store = EvaluationStore(capacity=2)
        for i in range(5):
            store.get_or_compute("s", i, lambda: i)
        store.clear()
        assert len(store) == 0
        stats = store.stats()
        assert stats.lookups == 0
        assert stats.evictions == 0
        assert not stats.stages


class _DictTier:
    """Minimal in-memory PersistentTier for store-side tests."""

    def __init__(self, stages=("detector",)):
        self.stages = set(stages)
        self.data = {}
        self.loads = 0
        self.stores = 0

    def accepts(self, stage):
        return stage in self.stages

    def load(self, stage, key):
        self.loads += 1
        return self.data.get((stage, key))

    def store(self, stage, key, value):
        self.stores += 1
        self.data[(stage, key)] = value


def _tiered_store(tier, capacity=8):
    store = EvaluationStore(capacity=capacity)
    store.attach_tier(tier)
    return store


class TestPersistentTier:
    def test_put_writes_through(self):
        tier = _DictTier()
        store = _tiered_store(tier)
        store.put("detector", "k", "v")
        assert tier.data == {("detector", "k"): "v"}

    def test_unaccepted_stage_not_written(self):
        tier = _DictTier(stages=("detector",))
        store = _tiered_store(tier)
        store.put("est_ap", "k", 0.5)
        assert not tier.data

    def test_miss_promotes_from_tier_and_counts_hit(self):
        tier = _DictTier()
        tier.data[("detector", "k")] = "persisted"
        store = _tiered_store(tier)
        assert store.get("detector", "k") == "persisted"
        stats = store.stats()
        assert stats.hits == 1
        assert stats.misses == 0
        assert stats.tier_hits == 1
        # Promoted into memory: the next get never consults the tier.
        loads_before = tier.loads
        assert store.get("detector", "k") == "persisted"
        assert tier.loads == loads_before

    def test_contains_promotes_without_counting_lookup(self):
        tier = _DictTier()
        tier.data[("detector", "k")] = "persisted"
        store = _tiered_store(tier)
        assert store.contains("detector", "k")
        stats = store.stats()
        assert stats.lookups == 0
        assert stats.tier_hits == 1

    def test_tier_miss_falls_through(self):
        tier = _DictTier()
        store = _tiered_store(tier)
        assert store.get("detector", "absent") is None
        stats = store.stats()
        assert stats.misses == 1
        assert stats.tier_hits == 0

    def test_attach_tier_mid_run(self):
        store = EvaluationStore(capacity=8)
        store.put("detector", "cold", "v0")  # no tier yet: memory only
        tier = _DictTier()
        store.attach_tier(tier)
        store.put("detector", "warm", "v1")
        assert ("detector", "warm") in tier.data
        assert ("detector", "cold") not in tier.data
        store.attach_tier(None)
        store.put("detector", "later", "v2")
        assert ("detector", "later") not in tier.data

    def test_get_or_compute_skips_compute_on_tier_hit(self):
        tier = _DictTier()
        tier.data[("detector", "k")] = "persisted"
        store = _tiered_store(tier)
        computed = []
        value = store.get_or_compute(
            "detector", "k", lambda: computed.append(1) or "fresh"
        )
        assert value == "persisted"
        assert not computed

    def test_clear_resets_tier_hits(self):
        tier = _DictTier()
        tier.data[("detector", "k")] = "v"
        store = _tiered_store(tier)
        store.get("detector", "k")
        store.clear()
        assert store.stats().tier_hits == 0

    def test_stats_as_dict_includes_tier_hits(self):
        store = EvaluationStore(capacity=8)
        assert store.stats().as_dict()["tier_hits"] == 0


class TestThreadSafety:
    def test_concurrent_get_or_compute(self):
        store = EvaluationStore(capacity=64)
        errors = []

        def worker(seed):
            try:
                for i in range(200):
                    key = (seed + i) % 40
                    value = store.get_or_compute("s", key, lambda k=key: k * 2)
                    assert value == key * 2
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(s,)) for s in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        stats = store.stats()
        assert stats.hits + stats.misses == stats.lookups
        assert len(store) <= 64

    def test_concurrent_eviction_pressure(self):
        store = EvaluationStore(capacity=8)

        def worker(base):
            for i in range(300):
                store.get_or_compute("s", base * 1000 + i, lambda: i)

        threads = [
            threading.Thread(target=worker, args=(b,)) for b in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(store) <= 8
        stats = store.stats()
        assert stats.hits + stats.misses == stats.lookups
        assert stats.evictions > 0


class TestBatchedOperations:
    """get_many / contains_many / put_many: one lock, sequential semantics."""

    def test_get_many_matches_sequential_gets(self):
        batched = EvaluationStore(capacity=16)
        sequential = EvaluationStore(capacity=16)
        for store in (batched, sequential):
            store.put("detector", ("f1", "m1"), "a")
            store.put("detector", ("f1", "m2"), "b")
        keys = [("f1", "m1"), ("f1", "m9"), ("f1", "m2"), ("f1", "m1")]
        results = batched.get_many("detector", keys)
        assert results == ["a", None, "b", "a"]
        assert results == [sequential.get("detector", k) for k in keys]
        # Stats parity with the sequential path: same lookups, hits,
        # misses — batching is invisible to the counters.
        assert batched.stats() == sequential.stats()

    def test_get_many_counts_each_key(self):
        store = EvaluationStore(capacity=16)
        store.put("s", 1, "x")
        store.get_many("s", [1, 2, 1, 3])
        stats = store.stats()
        assert stats.lookups == 4
        assert stats.hits == 2
        assert stats.misses == 2

    def test_get_many_refreshes_lru_order(self):
        store = EvaluationStore(capacity=2)
        store.put("s", 1, "a")
        store.put("s", 2, "b")
        store.get_many("s", [1])  # 1 becomes most-recent
        store.put("s", 3, "c")  # evicts 2
        assert store.contains("s", 1)
        assert not store.contains("s", 2)

    def test_contains_many_matches_sequential_contains(self):
        store = EvaluationStore(capacity=16)
        store.put("detector", ("f1", "m1"), "a")
        keys = [("f1", "m1"), ("f1", "m2")]
        assert store.contains_many("detector", keys) == [
            store.contains("detector", k) for k in keys
        ]
        # Like contains(), no lookup is counted.
        assert store.stats().lookups == 0

    def test_contains_many_promotes_from_tier(self):
        tier = _DictTier(stages=("detector",))
        tier.store("detector", "k", "v")
        store = _tiered_store(tier, capacity=16)
        assert store.contains_many("detector", ["k", "missing"]) == [
            True,
            False,
        ]
        # The tier hit was promoted into memory.
        assert ("detector", "k") in store._entries

    def test_put_many_matches_sequential_puts(self):
        batched = EvaluationStore(capacity=16)
        sequential = EvaluationStore(capacity=16)
        items = [(1, "a", 2.0), (2, "b", 3.0), (1, "dup", 1.0)]
        batched.put_many("s", items)
        for key, value, ms in items:
            sequential.put("s", key, value, ms)
        assert batched.get("s", 1) == sequential.get("s", 1) == "a"
        assert batched.get("s", 2) == sequential.get("s", 2) == "b"
        assert batched.stats() == sequential.stats()

    def test_put_many_validates_before_inserting_anything(self):
        store = EvaluationStore(capacity=16)
        with pytest.raises(ValueError, match="None"):
            store.put_many("s", [(1, "ok", 0.0), (2, None, 0.0)])
        with pytest.raises(ValueError, match="compute_ms"):
            store.put_many("s", [(3, "ok", -1.0)])
        # All-or-nothing: the valid leading item was not inserted.
        assert len(store) == 0

    def test_put_many_writes_through_to_tier(self):
        tier = _DictTier(stages=("detector",))
        store = _tiered_store(tier, capacity=16)
        store.put_many("detector", [("k1", "v1", 0.0), ("k2", "v2", 0.0)])
        store.put_many("reference", [("k3", "v3", 0.0)])  # not accepted
        assert tier.data == {
            ("detector", "k1"): "v1",
            ("detector", "k2"): "v2",
        }

    def test_put_many_respects_capacity(self):
        store = EvaluationStore(capacity=3)
        store.put_many("s", [(i, str(i), 0.0) for i in range(10)])
        assert len(store) == 3
        assert store.stats().evictions == 7
