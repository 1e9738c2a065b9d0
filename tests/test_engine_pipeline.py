"""Tests for the frame loop (frame → evaluate → observe → record) that
:class:`~repro.core.selection.IterativeSelection` runs for every algorithm.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.core.environment import DetectionEnvironment, EvaluationBatch
from repro.core.mes import MES
from repro.core.selection import FrameRecord, IterativeSelection
from repro.obs import NULL_OBS


class _Greedy(IterativeSelection):
    """A trivial algorithm: evaluate all singles, select the first."""

    name = "greedy"

    def __init__(self) -> None:
        self.updates: list[tuple[int, list]] = []

    def _choose(self, env, t, frame):
        singles = [key for key in env.all_ensembles if len(key) == 1]
        return singles[0], singles

    def _update(self, env, t, frame, batch):
        self.updates.append((t, sorted(batch.evaluations)))


class TestPipeline:
    def test_yields_one_record_per_frame(
        self, detector_pool, lidar, small_video
    ):
        env = DetectionEnvironment(detector_pool, lidar)
        records = _Greedy().run(env, small_video.frames[:7]).records
        assert len(records) == 7
        assert [r.iteration for r in records] == list(range(1, 8))
        assert [r.frame_index for r in records] == [
            f.index for f in small_video.frames[:7]
        ]
        assert all(isinstance(r, FrameRecord) for r in records)

    def test_budget_guard_stops_iteration(
        self, detector_pool, lidar, small_video
    ):
        env = DetectionEnvironment(detector_pool, lidar)
        probe = _Greedy().run(env, small_video.frames[:1]).records
        per_frame_ms = probe[0].charged_ms
        # Budget for ~3 frames: frame t+1 starts only while spent <= B.
        budget = per_frame_ms * 2.5
        env2 = DetectionEnvironment(detector_pool, lidar)
        records = _Greedy().run(env2, small_video.frames, budget_ms=budget).records
        assert 0 < len(records) < len(small_video.frames)
        spent = sum(r.charged_ms for r in records)
        # The last started iteration may overshoot, but without its charge
        # the run was still within budget.
        assert spent - records[-1].charged_ms <= budget

    def test_budget_landing_exactly_on_b_admits_next_iteration(self):
        """Alg. 2 line 6 is ``<= B``: when cumulative spend lands exactly
        on the budget, the next iteration still starts (and may overshoot);
        only spend strictly above B stops the loop."""
        per_frame_ms = 100.0

        class _StubEnv:
            obs = NULL_OBS

            def charge_overhead(self, count):
                pass

            def note_frame_abandoned(self):
                pass

            def note_frame_degraded(self):
                pass

            def evaluate(self, frame, keys, charge=True):
                evaluation = SimpleNamespace(
                    key=keys[0],
                    realized_key=keys[0],
                    est_score=1.0,
                    est_ap=1.0,
                    true_score=1.0,
                    true_ap=1.0,
                    cost_ms=per_frame_ms,
                    normalized_cost=1.0,
                )
                return EvaluationBatch(
                    evaluations={keys[0]: evaluation},
                    detector_ms=per_frame_ms,
                    ensembling_ms=0.0,
                    reference_ms=0.0,
                )

        class _Fixed(IterativeSelection):
            name = "fixed"

            def _choose(self, env, t, frame):
                return ("a",), [("a",)]

        frames = [SimpleNamespace(index=i) for i in range(10)]
        records = _Fixed().run(_StubEnv(), frames, budget_ms=3 * per_frame_ms).records
        # Frames 1–3 spend exactly B=300; frame 4 is admitted because the
        # guard is strict (>), and its charge ends the run at 400.
        assert len(records) == 4
        assert sum(r.charged_ms for r in records) == 4 * per_frame_ms

    def test_invalid_budget_rejected(self, environment, small_video):
        for budget in (0.0, -10.0):
            with pytest.raises(ValueError, match="budget_ms"):
                _Greedy().run(environment, small_video.frames, budget_ms=budget)

    def test_run_stream_rejects_invalid_budget_when_called(
        self, environment, small_video
    ):
        """The check runs at the call, not at the stream's first frame."""
        for budget in (0.0, -10.0):
            with pytest.raises(ValueError, match="budget_ms"):
                _Greedy().run_stream(
                    environment, iter(small_video.frames), budget_ms=budget
                )

    def test_selected_must_be_in_evaluation_list(
        self, detector_pool, lidar, small_video
    ):
        env = DetectionEnvironment(detector_pool, lidar)

        class _Bad(_Greedy):
            name = "bad-algo"

            def _choose(self, env, t, frame):
                singles = [key for key in env.all_ensembles if len(key) == 1]
                return env.full_ensemble, singles  # selected not evaluated

        with pytest.raises(RuntimeError, match="bad-algo"):
            _Bad().run(env, small_video.frames[:1])

    def test_observers_fire_per_frame(self, detector_pool, lidar, small_video):
        env = DetectionEnvironment(detector_pool, lidar)
        seen = []

        def observer(frame, batch, record):
            assert record.selected in batch.evaluations
            seen.append((frame.index, record.iteration))

        records = _Greedy().run(
            env, small_video.frames[:5], observers=[observer]
        ).records
        assert len(seen) == len(records) == 5
        assert seen == [(r.frame_index, r.iteration) for r in records]

    def test_update_hook_sees_batch_before_record(
        self, detector_pool, lidar, small_video
    ):
        env = DetectionEnvironment(detector_pool, lidar)
        algorithm = _Greedy()
        updated_before_record = []

        def observer(frame, batch, record):
            updated_before_record.append(algorithm.updates[-1][0] == record.iteration)

        algorithm.run(env, small_video.frames[:3], observers=[observer])
        assert [t for t, _ in algorithm.updates] == [1, 2, 3]
        assert updated_before_record == [True, True, True]

    def test_works_on_lazy_streams(self, detector_pool, lidar, small_video):
        """The loop never materializes its input."""
        env = DetectionEnvironment(detector_pool, lidar)

        def stream():
            yield from small_video.frames[:4]

        records = list(_Greedy().run_stream(env, stream()))
        assert len(records) == 4


class TestSingleLoopOwnership:
    def test_algorithms_share_the_pipeline_loop(
        self, detector_pool, lidar, small_video
    ):
        """Observers wired through `run` see exactly the records the
        loop yields."""
        env = DetectionEnvironment(detector_pool, lidar)
        observed = []
        result = MES().run(
            env,
            small_video.frames[:6],
            observers=[lambda f, b, r: observed.append(r)],
        )
        assert observed == list(result.records)

    def test_run_stream_uses_same_pipeline(
        self, detector_pool, lidar, small_video
    ):
        env_stream = DetectionEnvironment(detector_pool, lidar)
        streamed = list(
            MES().run_stream(env_stream, iter(small_video.frames[:6]))
        )
        env_batch = DetectionEnvironment(detector_pool, lidar)
        batch = MES().run(env_batch, small_video.frames[:6])
        assert streamed == list(batch.records)
