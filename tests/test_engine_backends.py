"""Execution-backend equivalence: backends change wall clock, not results.

The acceptance property of the engine refactor: Serial, ThreadPool and
ProcessPool backends must produce bitwise-identical selection runs —
identical :class:`FrameRecord` sequences *and* identical simulated-clock
ledgers — because every simulated charge is computed from detector
outputs, never from how they were scheduled.
"""

from __future__ import annotations

import pytest

from repro.core.environment import DetectionEnvironment
from repro.core.mes import MES
from repro.core.mes_b import MESB
from repro.core.sw_mes import SWMES
from repro.engine.backends import (
    BACKEND_NAMES,
    InferenceJob,
    ProcessPoolBackend,
    SerialBackend,
    ThreadPoolBackend,
    make_backend,
    submission_chunksize,
)

#: algorithm -> (factory, budget_ms); MES-B is budget-mandatory (TCVI).
ALGORITHMS = {
    "mes": (lambda: MES(), None),
    "mes-b": (lambda: MESB(), 2_000.0),
    "sw-mes": (lambda: SWMES(window=8), None),
}


def _run(algorithm, backend, detector_pool, lidar, frames, billing="sum"):
    factory, budget_ms = ALGORITHMS[algorithm]
    env = DetectionEnvironment(
        detector_pool, lidar, backend=backend, billing=billing
    )
    result = factory().run(env, frames, budget_ms=budget_ms)
    return result, env.clock.snapshot()


class TestBackendEquivalence:
    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    @pytest.mark.parametrize("backend_name", ["thread", "process"])
    def test_identical_to_serial(
        self, algorithm, backend_name, detector_pool, lidar, small_video
    ):
        frames = small_video.frames[:12]
        serial_result, serial_clock = _run(
            algorithm, SerialBackend(), detector_pool, lidar, frames
        )
        backend = make_backend(backend_name, workers=4)
        try:
            result, clock = _run(
                algorithm, backend, detector_pool, lidar, frames
            )
        finally:
            backend.close()
        # Bitwise equality: FrameRecord is a frozen dataclass of floats,
        # so == means every field (scores, costs, charges) is identical.
        assert result.records == serial_result.records
        assert result.s_sum == serial_result.s_sum
        assert clock == serial_clock

    def test_thread_backend_with_shared_store_matches_serial(
        self, detector_pool, lidar, small_video
    ):
        from repro.engine.store import EvaluationStore

        frames = small_video.frames[:10]
        serial_result, serial_clock = _run(
            "mes", SerialBackend(), detector_pool, lidar, frames
        )
        store = EvaluationStore()
        with ThreadPoolBackend(workers=4) as backend:
            env = DetectionEnvironment(
                detector_pool, lidar, cache=store, backend=backend
            )
            result = MES().run(env, frames)
            assert result.records == serial_result.records
            assert env.clock.snapshot() == serial_clock


class TestFaultedBackendEquivalence:
    """Fault-injected runs must stay backend-independent: the resilient
    layer does all breaker/retry bookkeeping on the calling thread, so
    serial and threaded execution see the same fault trace."""

    @pytest.mark.parametrize("profile", ["flaky-first", "outage-first"])
    def test_faulty_serial_matches_faulty_thread(
        self, profile, detector_pool, lidar, small_video
    ):
        from repro.engine.resilience import (
            BreakerPolicy,
            ResilientBackend,
            RetryPolicy,
        )
        from repro.simulation.faults import apply_fault_profile

        frames = small_video.frames[:12]

        def faulty_run(inner):
            # Fresh wrappers per run: FaultyDetector keeps per-frame
            # attempt counters, so the pools must not be shared.
            pool = apply_fault_profile(detector_pool, profile, seed=5)
            backend = ResilientBackend(
                inner,
                retry=RetryPolicy(max_attempts=2, seed=5),
                breaker=BreakerPolicy(failure_threshold=2, cooldown_batches=3),
            )
            with backend:
                env = DetectionEnvironment(pool, lidar, backend=backend)
                result = MES(gamma=3).run(env, frames)
                return result, env.clock.snapshot(), env.fault_stats()

        serial = faulty_run(SerialBackend())
        threaded = faulty_run(ThreadPoolBackend(workers=4))
        serial_result, serial_clock, serial_stats = serial
        thread_result, thread_clock, thread_stats = threaded
        assert thread_result.records == serial_result.records
        assert thread_result.s_sum == serial_result.s_sum
        assert thread_clock == serial_clock
        assert thread_stats.as_dict() == serial_stats.as_dict()
        if profile == "outage-first":
            assert serial_stats.failures > 0

    def test_chaos_metrics_snapshots_backend_independent(
        self, detector_pool, lidar, small_video
    ):
        """Serial and thread-4w runs under the chaos fault profile must
        produce *identical* logical metric snapshots — frames, retries,
        degradations — because the registry records only counts and
        simulated milliseconds, never scheduling-dependent values."""
        from repro.engine.resilience import (
            BreakerPolicy,
            ResilientBackend,
            RetryPolicy,
        )
        from repro.obs import Observability
        from repro.simulation.faults import apply_fault_profile

        frames = small_video.frames[:12]

        def chaotic_run(make_inner):
            obs = Observability(level="metrics")
            pool = apply_fault_profile(detector_pool, "chaos", seed=5)
            backend = ResilientBackend(
                make_inner(obs),
                retry=RetryPolicy(max_attempts=2, seed=5),
                breaker=BreakerPolicy(failure_threshold=2, cooldown_batches=3),
                obs=obs,
            )
            with backend:
                env = DetectionEnvironment(pool, lidar, backend=backend, obs=obs)
                result = MES(gamma=3).run(env, frames)
                return result, env.fault_stats(), obs

        serial_result, serial_stats, serial_obs = chaotic_run(
            lambda obs: SerialBackend(obs=obs)
        )
        thread_result, thread_stats, thread_obs = chaotic_run(
            lambda obs: ThreadPoolBackend(workers=4, obs=obs)
        )
        assert thread_result.records == serial_result.records

        serial_snap = serial_obs.snapshot()
        thread_snap = thread_obs.snapshot()
        # The headline property: the whole snapshot is equal, not just a
        # few counters — as_dict() covers every series deterministically.
        assert thread_snap.as_dict() == serial_snap.as_dict()

        # Sanity-check the logical counters against independent sources.
        assert serial_snap.counter_value(
            "repro_frames_total", algorithm=serial_result.algorithm
        ) == len(serial_result.records)
        assert serial_snap.counter_total("repro_retries_total") == (
            serial_stats.retries
        )
        degraded = sum(1 for r in serial_result.records if r.degraded)
        assert serial_snap.counter_total("repro_frames_degraded_total") == (
            degraded
        )
        # The event streams agree too (same logical facts, same order).
        assert serial_obs.events.events() == thread_obs.events.events()

    def test_faulty_runs_are_reproducible(
        self, detector_pool, lidar, small_video
    ):
        from repro.engine.resilience import ResilientBackend, RetryPolicy
        from repro.simulation.faults import apply_fault_profile

        frames = small_video.frames[:10]

        def run_once():
            pool = apply_fault_profile(detector_pool, "chaos", seed=11)
            backend = ResilientBackend(
                SerialBackend(), retry=RetryPolicy(max_attempts=2, seed=11)
            )
            env = DetectionEnvironment(pool, lidar, backend=backend)
            result = MES(gamma=3).run(env, frames)
            return result.records, env.fault_stats()

        first_records, first_stats = run_once()
        second_records, second_stats = run_once()
        assert first_records == second_records
        assert first_stats == second_stats


class TestBillingPolicy:
    def test_max_charges_slowest_member_only(
        self, detector_pool, lidar, simple_frame
    ):
        env_sum = DetectionEnvironment(detector_pool, lidar, billing="sum")
        env_max = DetectionEnvironment(detector_pool, lidar, billing="max")
        keys = [env_sum.full_ensemble]
        batch_sum = env_sum.evaluate(simple_frame, keys, charge=True)
        batch_max = env_max.evaluate(simple_frame, keys, charge=True)
        members = [
            env_sum.store.get("detector", (simple_frame.key, m)).inference_time_ms
            for m in env_sum.model_names
        ]
        assert batch_sum.detector_ms == pytest.approx(sum(members))
        assert batch_max.detector_ms == pytest.approx(max(members))
        assert env_max.clock.detector_ms < env_sum.clock.detector_ms

    def test_billing_does_not_change_scores(
        self, detector_pool, lidar, simple_frame
    ):
        """The policy bills the clock; per-ensemble scoring costs (Eq. 1)
        are the ensemble's own and unaffected."""
        env_sum = DetectionEnvironment(detector_pool, lidar, billing="sum")
        env_max = DetectionEnvironment(detector_pool, lidar, billing="max")
        keys = env_sum.all_ensembles
        batch_sum = env_sum.evaluate(simple_frame, keys, charge=False)
        batch_max = env_max.evaluate(simple_frame, keys, charge=False)
        for key in keys:
            assert (
                batch_sum.evaluations[key].est_score
                == batch_max.evaluations[key].est_score
            )
            assert (
                batch_sum.evaluations[key].cost_ms
                == batch_max.evaluations[key].cost_ms
            )

    def test_unknown_policy_rejected(self, detector_pool, lidar):
        with pytest.raises(ValueError, match="billing"):
            DetectionEnvironment(detector_pool, lidar, billing="mean")


class TestBackendMechanics:
    def test_make_backend_names(self):
        for name in BACKEND_NAMES:
            backend = make_backend(name, workers=2)
            try:
                assert backend.name == name
            finally:
                backend.close()

    def test_make_backend_unknown_name(self):
        with pytest.raises(ValueError, match="unknown backend"):
            make_backend("gpu")

    def test_workers_validated(self):
        with pytest.raises(ValueError):
            ThreadPoolBackend(workers=0)
        with pytest.raises(ValueError):
            ProcessPoolBackend(workers=-1)

    def test_results_preserve_job_order(self, detector_pool, simple_frame):
        jobs = [InferenceJob(d, simple_frame) for d in detector_pool]
        serial = SerialBackend().run(jobs)
        with ThreadPoolBackend(workers=3) as backend:
            threaded = backend.run(jobs)
        assert [r.output for r in serial] == [r.output for r in threaded]

    def test_single_job_skips_pool_dispatch(self, detector_pool, simple_frame):
        with ThreadPoolBackend(workers=2) as backend:
            results = backend.run([InferenceJob(detector_pool[0], simple_frame)])
            assert len(results) == 1
            # The lazy pool was never needed for a single job.
            assert backend._executor is None

    def test_close_is_idempotent(self):
        backend = ThreadPoolBackend(workers=2)
        backend.close()
        backend.close()

    def test_environment_reusable_after_clock_reset(
        self, detector_pool, lidar, small_video
    ):
        frames = small_video.frames[:8]
        with ThreadPoolBackend(workers=4) as backend:
            env = DetectionEnvironment(detector_pool, lidar, backend=backend)
            first = MES().run(env, frames)
            first_clock = env.clock.snapshot()
            env.clock.reset()
            assert env.clock.total_ms == 0.0
            second = MES().run(env, frames)
            # Same frames, same detectors, warm store: identical charges.
            assert env.clock.snapshot() == first_clock
            assert second.records == first.records


class TestSubmissionChunksize:
    """The chunked-submission policy and the batched paths that use it."""

    def test_policy_mirrors_lint_engine(self):
        # max(1, jobs // (workers * 4)): ~4 chunks per worker.
        assert submission_chunksize(1, 4) == 1
        assert submission_chunksize(16, 4) == 1
        assert submission_chunksize(64, 4) == 4
        assert submission_chunksize(512, 4) == 32
        assert submission_chunksize(10, 1) == 2

    def test_validation(self):
        with pytest.raises(ValueError, match="num_jobs"):
            submission_chunksize(0, 4)
        with pytest.raises(ValueError, match="workers"):
            submission_chunksize(8, 0)

    def test_large_batch_bitwise_equivalent_across_backends(
        self, detector_pool, small_video
    ):
        # 24 frames x 3 detectors = 72 jobs: chunksize 72 // 16 = 4, so
        # the pool backends actually exercise multi-job chunks here.
        frames = small_video.frames[:24]
        jobs = [InferenceJob(d, f) for f in frames for d in detector_pool]
        assert submission_chunksize(len(jobs), 4) > 1
        serial = SerialBackend().run(jobs)
        assert all(r.ok for r in serial)
        for name in ("thread", "process"):
            backend = make_backend(name, workers=4)
            try:
                results = backend.run(jobs)
            finally:
                backend.close()
            # map() returns results in job order regardless of chunking;
            # simulated outputs are deterministic, so equality is bitwise.
            assert [r.output for r in results] == [r.output for r in serial]

    def test_prefetch_runs_of_all_backends_identical(
        self, detector_pool, lidar, small_video
    ):
        frames = small_video.frames[:16]

        def run(backend_name):
            backend = make_backend(backend_name, workers=4)
            try:
                env = DetectionEnvironment(
                    detector_pool, lidar, backend=backend
                )
                executed = env.prefetch(frames)
                result = MES().run(env, frames)
                return executed, result, env.clock.snapshot()
            finally:
                backend.close()

        serial_jobs, serial_result, serial_clock = run("serial")
        # Everything was missing: one job per (model, frame) plus REF.
        assert serial_jobs == len(frames) * (len(detector_pool) + 1)
        for name in ("thread", "process"):
            jobs, result, clock = run(name)
            assert jobs == serial_jobs
            assert result.records == serial_result.records
            assert clock == serial_clock
