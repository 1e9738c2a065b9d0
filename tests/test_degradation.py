"""Graceful degradation: realized subsets, masking, abandoned frames."""

from __future__ import annotations

import pytest

from repro.core.environment import (
    DetectionEnvironment,
    FaultStats,
    FrameEvaluationError,
)
from repro.core.mes import MES
from repro.engine.backends import SerialBackend
from repro.engine.resilience import BreakerPolicy, ResilientBackend, RetryPolicy
from repro.runner.io import load_result_json, save_result_json
from repro.simulation.faults import FaultSpec, FaultyDetector


def _resilient(**kwargs):
    kwargs.setdefault("retry", RetryPolicy(max_attempts=2, jitter_ms=0.0))
    kwargs.setdefault(
        "breaker", BreakerPolicy(failure_threshold=2, cooldown_batches=3)
    )
    return ResilientBackend(SerialBackend(), **kwargs)


def _env_with_outage(detector_pool, lidar, down=(0,), backend=None):
    """An environment where the detectors at ``down`` are always out."""
    pool = [
        FaultyDetector(d, FaultSpec(outage=(0, 10**9)), seed=i)
        if i in down
        else d
        for i, d in enumerate(detector_pool)
    ]
    return DetectionEnvironment(
        pool, lidar, backend=backend if backend is not None else _resilient()
    )


class TestRealizedSubsets:
    def test_full_ensemble_realizes_healthy_subset(
        self, detector_pool, lidar, simple_frame
    ):
        env = _env_with_outage(detector_pool, lidar)
        down = detector_pool[0].name
        batch = env.evaluate(simple_frame, [env.full_ensemble])
        assert batch.failed_models == (down,)
        assert batch.degraded
        evaluation = batch.evaluations[env.full_ensemble]
        assert evaluation.degraded
        expected = tuple(m for m in env.full_ensemble if m != down)
        assert evaluation.realized == expected
        assert evaluation.realized_key == expected

    def test_realized_scores_match_direct_subset_run(
        self, detector_pool, lidar, simple_frame
    ):
        """The fallback is *recomputed* fusion over survivors — identical
        to evaluating the healthy subset in a fault-free environment."""
        env = _env_with_outage(detector_pool, lidar)
        batch = env.evaluate(simple_frame, [env.full_ensemble], charge=False)
        degraded_eval = batch.evaluations[env.full_ensemble]
        clean_env = DetectionEnvironment(detector_pool[1:], lidar)
        clean_eval = clean_env.evaluate(
            simple_frame, [degraded_eval.realized], charge=False
        ).evaluations[degraded_eval.realized]
        assert degraded_eval.est_ap == clean_eval.est_ap
        assert degraded_eval.true_ap == clean_eval.true_ap
        assert degraded_eval.detections == clean_eval.detections

    def test_billing_covers_healthy_members_only(
        self, detector_pool, lidar, simple_frame
    ):
        env = _env_with_outage(detector_pool, lidar)
        batch = env.evaluate(simple_frame, [env.full_ensemble])
        healthy_ms = sum(
            env.store.get("detector", (simple_frame.key, m)).inference_time_ms
            for m in batch.evaluations[env.full_ensemble].realized
        )
        assert batch.detector_ms == pytest.approx(healthy_ms)
        assert env.clock.detector_ms == pytest.approx(healthy_ms)

    def test_collapsed_realizations_bill_fusion_once(
        self, detector_pool, lidar, simple_frame
    ):
        """Requested ensembles that realize to the same subset pay one
        fusion, and observations() deduplicates them."""
        env = _env_with_outage(detector_pool, lidar)
        down = detector_pool[0].name
        survivors = tuple(m for m in env.full_ensemble if m != down)
        requested = [env.full_ensemble, survivors]
        batch = env.evaluate(simple_frame, requested, charge=False)
        assert len(batch.evaluations) == 2
        realized = {e.realized_key for e in batch.evaluations.values()}
        assert realized == {survivors}
        assert batch.ensembling_ms == pytest.approx(
            batch.evaluations[survivors].ensembling_ms
        )
        observations = list(batch.observations())
        assert len(observations) == 1
        assert observations[0][0] == survivors

    def test_requested_ensemble_with_no_member_dropped(
        self, detector_pool, lidar, simple_frame
    ):
        env = _env_with_outage(detector_pool, lidar)
        down_key = (detector_pool[0].name,)
        other = (detector_pool[1].name,)
        batch = env.evaluate(simple_frame, [down_key, other])
        assert down_key not in batch.evaluations
        assert other in batch.evaluations
        assert batch.ensembles_dropped == 1

    def test_all_dropped_raises(self, detector_pool, lidar, simple_frame):
        env = _env_with_outage(detector_pool, lidar)
        with pytest.raises(FrameEvaluationError, match="healthy"):
            env.evaluate(simple_frame, [(detector_pool[0].name,)])

    def test_fault_free_runs_unchanged(
        self, detector_pool, lidar, simple_frame
    ):
        """No faults: realized == requested and nothing is degraded."""
        env = DetectionEnvironment(detector_pool, lidar)
        batch = env.evaluate(simple_frame, env.all_ensembles)
        assert not batch.degraded
        assert batch.failed_models == ()
        for key, evaluation in batch.evaluations.items():
            assert evaluation.realized == key
            assert not evaluation.degraded


class TestSelectionUnderFaults:
    def test_mes_survives_sustained_outage(
        self, detector_pool, lidar, small_video
    ):
        env = _env_with_outage(detector_pool, lidar)
        result = MES(gamma=3).run(env, small_video.frames[:15])
        assert result.frames_processed == 15  # nothing aborted the run
        assert result.frames_degraded > 0
        degraded = [r for r in result.records if r.degraded]
        down = detector_pool[0].name
        for record in degraded:
            assert down in record.selected
            assert down not in record.realized_key

    def test_masking_after_breaker_opens(
        self, detector_pool, lidar, small_video
    ):
        env = _env_with_outage(detector_pool, lidar)
        MES(gamma=3).run(env, small_video.frames[:10])
        down = detector_pool[0].name
        # The sustained outage must have opened the circuit at least once;
        # at that moment available_ensembles() hides the dead arm.
        assert env.fault_stats().breaker_opens > 0
        if down in env.unavailable_detectors():
            available = env.available_ensembles()
            assert all(down not in key for key in available)
            assert len(available) < len(env.all_ensembles)

    def test_all_detectors_down_abandons_frames(
        self, detector_pool, lidar, small_video
    ):
        env = _env_with_outage(
            detector_pool, lidar, down=tuple(range(len(detector_pool)))
        )
        frames = small_video.frames[:6]
        result = MES(gamma=2).run(env, frames)
        assert result.frames_processed == 0
        assert env.fault_stats().frames_abandoned == len(frames)

    def test_fault_stats_merges_backend_and_frame_counters(
        self, detector_pool, lidar, small_video
    ):
        env = _env_with_outage(detector_pool, lidar)
        result = MES(gamma=3).run(env, small_video.frames[:12])
        stats = env.fault_stats()
        assert stats.failures > 0
        assert stats.frames_degraded == result.frames_degraded
        assert stats.frames_abandoned == 0

    def test_fault_free_stats_are_all_zero(
        self, detector_pool, lidar, small_video
    ):
        env = DetectionEnvironment(detector_pool, lidar)
        MES(gamma=2).run(env, small_video.frames[:6])
        assert env.fault_stats() == FaultStats()


class TestRecordSerialization:
    def test_realized_round_trips_through_json(
        self, detector_pool, lidar, small_video, tmp_path
    ):
        env = _env_with_outage(detector_pool, lidar)
        result = MES(gamma=3).run(env, small_video.frames[:10])
        assert result.frames_degraded > 0
        path = tmp_path / "run.json"
        save_result_json(result, path)
        loaded = load_result_json(path)
        assert loaded.records == result.records
        assert loaded.frames_degraded == result.frames_degraded
