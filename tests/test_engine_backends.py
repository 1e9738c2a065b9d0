"""The execution backend: one serial path, wrapped for faults.

Every simulated charge is computed from detector outputs, never from how
they were scheduled, so a seeded run — faulty or not — has one answer:
identical :class:`FrameRecord` sequences, clock ledgers, fault stats and
metric snapshots run after run.
"""

from __future__ import annotations

import pytest

from repro.core.environment import DetectionEnvironment
from repro.core.mes import MES
from repro.engine.backends import InferenceJob, SerialBackend, make_backend


class TestFaultedBackendEquivalence:
    """Fault-injected runs keep one answer per seed: the resilient layer
    folds every breaker and retry outcome in job order."""

    def test_chaos_metrics_are_reproducible(
        self, detector_pool, lidar, small_video
    ):
        """Two runs under the chaos fault profile produce *identical*
        metric snapshots and event streams — the registry records only
        counts and simulated milliseconds — and the logical counters
        (frames, retries, degradations) match their independent sources."""
        from repro.engine.resilience import ResilientBackend
        from repro.obs import Observability
        from repro.simulation.faults import apply_fault_profile

        frames = small_video.frames[:12]

        def chaotic_run():
            obs = Observability(level="metrics")
            pool = apply_fault_profile(detector_pool, "chaos", seed=5)
            inner = SerialBackend(obs=obs)
            with ResilientBackend(inner, max_attempts=2, obs=obs) as backend:
                env = DetectionEnvironment(pool, lidar, backend=backend, obs=obs)
                result = MES(gamma=3).run(env, frames)
                return result, env.fault_stats(), obs

        result, stats, obs = chaotic_run()
        again_result, _, again_obs = chaotic_run()
        assert again_result.records == result.records
        snapshot = obs.snapshot()
        assert again_obs.snapshot().as_dict() == snapshot.as_dict()
        assert again_obs.events.events() == obs.events.events()

        assert snapshot.counter_value(
            "repro_frames_total", algorithm=result.algorithm
        ) == len(result.records)
        assert snapshot.counter_total("repro_retries_total") == stats.retries
        degraded = sum(1 for r in result.records if r.degraded)
        assert snapshot.counter_total("repro_frames_degraded_total") == degraded

    def test_faulty_runs_are_reproducible(
        self, detector_pool, lidar, small_video
    ):
        from repro.engine.resilience import ResilientBackend
        from repro.simulation.faults import apply_fault_profile

        frames = small_video.frames[:10]

        def run_once():
            pool = apply_fault_profile(detector_pool, "chaos", seed=11)
            backend = ResilientBackend(SerialBackend(), max_attempts=2)
            env = DetectionEnvironment(pool, lidar, backend=backend)
            result = MES(gamma=3).run(env, frames)
            return result.records, env.fault_stats()

        first_records, first_stats = run_once()
        second_records, second_stats = run_once()
        assert first_records == second_records
        assert first_stats == second_stats


class TestBackendMechanics:
    def test_make_backend_names(self):
        with make_backend("serial") as backend:
            assert isinstance(backend, SerialBackend)
            assert backend.name == "serial"

    def test_make_backend_unknown_name(self):
        for name in ("gpu", "thread", "process"):
            with pytest.raises(ValueError, match="unknown backend"):
                make_backend(name)

    def test_results_preserve_job_order(self, detector_pool, simple_frame):
        jobs = [InferenceJob(d, simple_frame) for d in detector_pool]
        results = SerialBackend().run(jobs)
        assert [r.output for r in results] == [
            d.detect(simple_frame) for d in detector_pool
        ]

    def test_close_is_idempotent(self):
        from repro.engine.resilience import ResilientBackend

        for backend in (SerialBackend(), ResilientBackend(SerialBackend())):
            backend.close()
            backend.close()

    def test_environment_reusable_after_clock_reset(
        self, detector_pool, lidar, small_video
    ):
        frames = small_video.frames[:8]
        with SerialBackend() as backend:
            env = DetectionEnvironment(detector_pool, lidar, backend=backend)
            first = MES().run(env, frames)
            first_clock = env.clock.snapshot()
            env.clock.reset()
            assert env.clock.total_ms == 0.0
            second = MES().run(env, frames)
            # Same frames, same detectors, warm store: identical charges.
            assert env.clock.snapshot() == first_clock
            assert second.records == first.records
