"""Tests for the resilient execution layer (retry, timeout, breaker)."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.engine.backends import InferenceJob, SerialBackend
from repro.engine.resilience import (
    COOLDOWN_BATCHES,
    FAILURE_THRESHOLD,
    CircuitBreaker,
    FaultStats,
    ResilientBackend,
)
from repro.obs import Observability


class _Model:
    """A scriptable model: fails the first ``fail_times`` calls."""

    def __init__(self, name="m", fail_times=0, latency_ms=5.0):
        self.name = name
        self.fail_times = fail_times
        self.latency_ms = latency_ms
        self.calls = 0

    def detect(self, frame):
        self.calls += 1
        if self.calls <= self.fail_times:
            raise RuntimeError(f"{self.name} scripted failure {self.calls}")
        return SimpleNamespace(inference_time_ms=self.latency_ms)


def _frame(index=0):
    return SimpleNamespace(index=index, key=f"frame-{index}")


def _job(model, index=0):
    return InferenceJob(model, _frame(index))


def _backend(**kwargs):
    return ResilientBackend(SerialBackend(), **kwargs)


def _open_circuit(backend, model):
    """Fail ``model`` in FAILURE_THRESHOLD one-job batches: its circuit opens."""
    for index in range(FAILURE_THRESHOLD):
        backend.run([_job(model, index)])
    assert model.name in backend.open_detectors()


def _breaker_state(backend, name="m"):
    return backend._breakers[name].state


class TestRetryExecution:
    def test_max_attempts_validated(self):
        with pytest.raises(ValueError, match="max_attempts"):
            _backend(max_attempts=0)

    def test_transient_failure_recovers(self):
        model = _Model(fail_times=2)
        backend = _backend()
        [result] = backend.run([_job(model)])
        assert result.ok
        assert result.attempts == 3
        assert model.calls == 3
        stats = backend.stats()
        assert stats.retries == 2
        assert stats.recoveries == 1
        assert stats.failures == 2

    def test_attempt_budget_exhausted(self):
        model = _Model(fail_times=10)
        backend = _backend()
        [result] = backend.run([_job(model)])
        assert not result.ok
        assert result.status == "failed"
        assert result.attempts == 3
        assert "scripted failure" in result.error
        stats = backend.stats()
        assert (stats.attempts, stats.failures, stats.retries) == (3, 3, 2)
        assert stats.recoveries == 0

    def test_single_attempt_disables_retry(self):
        model = _Model(fail_times=1)
        backend = _backend(max_attempts=1)
        [result] = backend.run([_job(model)])
        assert result.status == "failed"
        assert model.calls == 1
        assert backend.stats().failures == 1

    def test_retry_spans_name_model_attempt_and_status(self):
        obs = Observability(level="trace")
        backend = _backend(obs=obs)
        backend.run([_job(_Model(fail_times=1))])
        [span] = [s for s in obs.tracer.finished() if s.name == "retry"]
        assert span.attributes == {"model": "m", "attempt": 2}
        assert span.status == "ok"

    def test_ok_results_pass_through_unchanged(self):
        model = _Model()
        backend = _backend()
        [result] = backend.run([_job(model)])
        assert result.ok
        assert result.attempts == 1
        assert result.output.inference_time_ms == 5.0
        assert backend.stats().attempts == 1


class TestTimeout:
    def test_simulated_latency_timeout(self):
        obs = Observability(level="metrics")
        backend = _backend(timeout_ms=10.0, obs=obs)
        [result] = backend.run([_job(_Model(latency_ms=50.0))])
        assert result.status == "timeout"
        assert result.output is None
        assert result.attempts == 3  # each over-latency attempt retried
        assert backend.stats().timeouts == 3
        assert backend.stats().failures == 0
        # One count per timed-out attempt, the last one included.
        assert obs.snapshot().counter_total("repro_timeouts_total") == 3

    def test_latency_under_timeout_is_ok(self):
        backend = _backend(timeout_ms=10.0)
        [result] = backend.run([_job(_Model(latency_ms=9.0))])
        assert result.ok

    def test_timeout_validation(self):
        with pytest.raises(ValueError, match="timeout_ms"):
            _backend(timeout_ms=0.0)


def _half_open_breaker():
    breaker = CircuitBreaker()
    for _ in range(FAILURE_THRESHOLD):
        breaker.record_failure()
    for _ in range(COOLDOWN_BATCHES):
        breaker.tick()
    assert breaker.state == "half-open"
    return breaker


class TestCircuitBreaker:
    def test_lifecycle(self):
        breaker = CircuitBreaker()
        assert breaker.state == "closed"
        for _ in range(FAILURE_THRESHOLD - 1):
            breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.try_admit()
        for _ in range(COOLDOWN_BATCHES - 1):
            breaker.tick()
        assert breaker.state == "open"
        breaker.tick()
        assert breaker.state == "half-open"
        assert breaker.try_admit()
        breaker.record_failure()  # failed probe re-opens immediately
        assert breaker.state == "open"
        for _ in range(COOLDOWN_BATCHES):
            breaker.tick()
        breaker.record_success()
        assert breaker.state == "closed"

    def test_success_resets_consecutive_count(self):
        breaker = CircuitBreaker()
        for _ in range(FAILURE_THRESHOLD - 1):
            breaker.record_failure()
        breaker.record_success()
        for _ in range(FAILURE_THRESHOLD - 1):
            breaker.record_failure()
        assert breaker.state == "closed"

    def test_failure_while_open_rearms_cooldown(self):
        breaker = CircuitBreaker()
        for _ in range(FAILURE_THRESHOLD):
            breaker.record_failure()
        for _ in range(COOLDOWN_BATCHES - 1):
            breaker.tick()
        breaker.record_failure()  # folded while open: the cooldown restarts
        assert breaker.state == "open"
        for _ in range(COOLDOWN_BATCHES - 1):
            breaker.tick()
        assert breaker.state == "open"
        breaker.tick()
        assert breaker.state == "half-open"

    def test_half_open_admits_exactly_one_probe(self):
        breaker = _half_open_breaker()
        assert breaker.try_admit()
        assert not breaker.try_admit()  # the slot is taken
        assert breaker.state == "half-open"
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.try_admit()  # closed admits freely again

    def test_failed_probe_frees_slot_after_reopen(self):
        breaker = _half_open_breaker()
        assert breaker.try_admit()
        breaker.record_failure()  # probe failed: open again
        assert breaker.state == "open"
        assert not breaker.try_admit()
        for _ in range(COOLDOWN_BATCHES):
            breaker.tick()
        assert breaker.state == "half-open"
        assert breaker.try_admit()  # next cooldown offers a fresh probe


class TestBreakerExecution:
    def _failing_backend(self, **kwargs):
        return _backend(max_attempts=1, **kwargs)

    def test_open_circuit_skips_jobs(self):
        model = _Model(fail_times=10**6)
        backend = self._failing_backend()
        _open_circuit(backend, model)
        assert backend.open_detectors() == frozenset({"m"})
        calls_before = model.calls
        [skipped] = backend.run([_job(model, FAILURE_THRESHOLD)])
        assert skipped.status == "skipped-open-circuit"
        assert skipped.attempts == 0
        assert model.calls == calls_before  # the model was never touched
        assert backend.stats().breaker_skips == 1
        assert backend.stats().breaker_opens == 1

    def test_half_open_probe_heals(self):
        model = _Model(fail_times=FAILURE_THRESHOLD)
        backend = self._failing_backend()
        _open_circuit(backend, model)
        for _ in range(COOLDOWN_BATCHES - 1):  # cooldown: still open
            [skipped] = backend.run([_job(model)])
            assert skipped.status == "skipped-open-circuit"
        assert _breaker_state(backend) == "open"
        [probe] = backend.run([_job(model)])  # last tick: probe admitted
        assert probe.ok
        assert _breaker_state(backend) == "closed"
        assert backend.open_detectors() == frozenset()

    def test_half_open_not_reported_as_open(self):
        model = _Model(fail_times=10**6)
        backend = self._failing_backend()
        _open_circuit(backend, model)
        for _ in range(COOLDOWN_BATCHES):
            backend.run([])  # empty batches still tick the cooldown
        assert _breaker_state(backend) == "half-open"
        assert backend.open_detectors() == frozenset()
        backend.run([_job(model)])  # the probe fails: open again
        assert backend.open_detectors() == frozenset({"m"})
        assert backend.stats().breaker_opens == 2

    def test_batch_snapshot_isolates_jobs_within_one_batch(self):
        """Failures inside a batch must not skip later jobs of the same
        batch — breaker decisions are taken on the batch snapshot — and
        the failures folded after the circuit opened do not open it
        again."""
        model = _Model(fail_times=10**6)
        backend = self._failing_backend()
        jobs = [_job(model, index) for index in range(FAILURE_THRESHOLD + 2)]
        results = backend.run(jobs)
        assert [r.status for r in results] == ["failed"] * len(jobs)
        assert backend.stats().breaker_skips == 0
        assert backend.stats().breaker_opens == 1

    def test_each_state_change_emits_one_event(self):
        obs = Observability(level="metrics")
        model = _Model(fail_times=FAILURE_THRESHOLD + 1)
        backend = self._failing_backend(obs=obs)
        # One batch opens the circuit and folds one more failure into it.
        jobs = [_job(model, index) for index in range(FAILURE_THRESHOLD + 1)]
        backend.run(jobs)
        for _ in range(COOLDOWN_BATCHES - 1):
            backend.run([_job(model)])  # skipped: no transition
        backend.run([_job(model)])  # half-open, and the probe heals it
        transitions = [
            (e["from_state"], e["to_state"], e["batch"])
            for e in obs.events.events("circuit-transition")
        ]
        assert transitions == [
            ("closed", "open", 1),
            ("open", "half-open", COOLDOWN_BATCHES + 1),
            ("half-open", "closed", COOLDOWN_BATCHES + 1),
        ]
        snapshot = obs.snapshot()
        for to_state in ("open", "half-open", "closed"):
            assert snapshot.counter_value(
                "repro_breaker_transitions_total", model="m", to_state=to_state
            ) == 1
        assert backend.stats().breaker_opens == 1

    def test_results_keep_job_order_with_skips(self):
        bad = _Model(name="bad", fail_times=10**6)
        good = _Model(name="good")
        backend = self._failing_backend()
        _open_circuit(backend, bad)
        results = backend.run([_job(good, 9), _job(bad, 9), _job(good, 9)])
        assert [r.status for r in results] == [
            "ok",
            "skipped-open-circuit",
            "ok",
        ]

    def test_half_open_single_probe_per_batch(self):
        """Two jobs of a half-open model in the same batch must admit
        exactly one probe; the other job is skipped.

        Regression test: admission used to consult a read-only state
        check per job, so a two-job batch against a half-open circuit
        dispatched both jobs as probes."""
        model = _Model(fail_times=FAILURE_THRESHOLD)
        backend = self._failing_backend()
        _open_circuit(backend, model)
        for _ in range(COOLDOWN_BATCHES - 1):
            backend.run([])  # cooldown ticks
        calls_before = model.calls
        # One batch, two jobs of the half-open model on two frames.
        results = backend.run([_job(model, 10), _job(model, 11)])
        statuses = sorted(r.status for r in results)
        assert statuses == ["ok", "skipped-open-circuit"]
        assert model.calls == calls_before + 1  # exactly one probe ran
        assert _breaker_state(backend) == "closed"  # probe healed it

    def test_half_open_single_probe_same_frame_jobs(self):
        """The guarantee holds even when both jobs are identical
        (same model, same frame) — the second is refused, not deduped."""
        model = _Model(fail_times=FAILURE_THRESHOLD)
        backend = self._failing_backend()
        _open_circuit(backend, model)
        for _ in range(COOLDOWN_BATCHES - 1):
            backend.run([])
        calls_before = model.calls
        results = backend.run([_job(model, 10), _job(model, 10)])
        assert sorted(r.status for r in results) == [
            "ok",
            "skipped-open-circuit",
        ]
        assert model.calls == calls_before + 1


class TestBackendSurface:
    def test_name_and_context_manager(self):
        with _backend() as backend:
            assert backend.name == "resilient-serial"

    def test_stats_snapshot_is_immutable(self):
        backend = _backend()
        snapshot = backend.stats()
        assert snapshot == FaultStats()
        backend.run([_job(_Model(fail_times=1))])
        assert snapshot == FaultStats()  # old snapshot unchanged
        assert backend.stats().retries == 1

    def test_as_dict_round_trip(self):
        stats = FaultStats(attempts=3, failures=1, retries=1, recoveries=1)
        payload = stats.as_dict()
        assert payload["attempts"] == 3
        assert FaultStats(**payload) == stats
