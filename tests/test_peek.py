"""``peek`` is the true-score-only oracle view.

Until peeks skipped REF-estimated AP, ``peek`` was a plain
``evaluate(charge=False)``.  :class:`_EstimatingPeeks` restores that
behaviour, so every comparison below is against the old peek.
"""

from __future__ import annotations

import pytest

from repro.core.baselines import Oracle, SingleBest
from repro.core.environment import DetectionEnvironment, FrameEvaluationError
from repro.core.mes import MES
from repro.core.regret import oracle_scores
from repro.core.skipping import DIFF_DETECTOR_MS, FrameSkipper
from repro.engine.store import EvaluationStore
from repro.runner.experiment import standard_setup
from repro.simulation.faults import FaultSpec, FaultyDetector


class _EstimatingPeeks(DetectionEnvironment):
    """The old peek: a full uncharged evaluation, REF estimates included."""

    def peek(self, frame, keys):
        return self.evaluate(frame, keys, charge=False)


def _stage(env, stage):
    return env.store.stats().stages[stage]


class TestPeek:
    def test_true_fields_equal_uncharged_evaluate(self, environment, simple_frame):
        keys = environment.all_ensembles
        peeked = environment.peek(simple_frame, keys)
        full = environment.evaluate(simple_frame, keys, charge=False)
        assert environment.clock.total_ms == 0.0
        assert peeked.detector_ms == full.detector_ms
        assert peeked.ensembling_ms == full.ensembling_ms
        assert peeked.failed_models == full.failed_models
        for key, evaluation in peeked.evaluations.items():
            assert evaluation.est_ap == 0.0
            assert evaluation.est_score == 0.0
            expected = full.evaluations[key]
            assert evaluation.detections == expected.detections
            assert evaluation.cost_ms == expected.cost_ms
            assert evaluation.true_ap == expected.true_ap
            assert evaluation.true_score == expected.true_score

    def test_skips_estimated_ap_but_still_reads_reference(
        self, environment, simple_frame
    ):
        environment.peek(simple_frame, environment.all_ensembles)
        stages = environment.store.stats().stages
        assert "est_ap" not in stages
        assert stages["true_ap"].misses == len(environment.all_ensembles)
        assert environment.store.contains(
            "reference", (simple_frame.key, environment.reference.name)
        )

    def test_reference_failure_abandons_the_frame(
        self, detector_pool, lidar, simple_frame
    ):
        down = FaultyDetector(lidar, FaultSpec(outage=(0, 1)), seed=0)
        env = DetectionEnvironment(detector_pool, down)
        with pytest.raises(FrameEvaluationError, match="reference"):
            env.peek(simple_frame, env.all_ensembles)


@pytest.fixture(scope="module")
def setup():
    return standard_setup("nusc-night", trial=0, scale=0.02, m=3, max_frames=24)


def _run_pair(setup, algorithm_factory, reference=None):
    """One run on the old peek and one on the new, on separate stores."""
    runs = []
    for env_class in (_EstimatingPeeks, DetectionEnvironment):
        env = env_class(
            list(setup.detectors),
            reference if reference is not None else setup.reference,
            cache=EvaluationStore(),
        )
        runs.append((algorithm_factory().run(env, setup.frames), env))
    return runs


class TestRecordsUnchanged:
    @pytest.mark.parametrize("factory", [Oracle, SingleBest])
    def test_records_equal_old_peeks(self, setup, factory):
        (old, old_env), (new, new_env) = _run_pair(setup, factory)
        assert new.records == old.records
        assert new_env.clock.snapshot() == old_env.clock.snapshot()

    def test_reference_outage_abandons_the_same_frames(self, setup):
        def faulty_reference():
            return FaultyDetector(setup.reference, FaultSpec(outage=(5, 9)), seed=0)

        (old, old_env), (new, new_env) = _run_pair(setup, Oracle, faulty_reference())
        assert new.records == old.records
        assert new.frames_processed == len(setup.frames) - 4
        assert new_env.fault_stats() == old_env.fault_stats()

    def test_oracle_scores_equal_old_peeks(self, setup):
        old_env = _EstimatingPeeks(list(setup.detectors), setup.reference)
        new_env = DetectionEnvironment(list(setup.detectors), setup.reference)
        assert oracle_scores(new_env, setup.frames) == oracle_scores(
            old_env, setup.frames
        )

    def test_opt_estimates_only_its_selection(self, setup):
        """OPT's one estimated AP per frame comes from its charged evaluate."""
        env = DetectionEnvironment(list(setup.detectors), setup.reference)
        result = Oracle().run(env, setup.frames)
        est = _stage(env, "est_ap")
        assert est.lookups == est.misses == len(setup.frames)
        for frame, record in zip(setup.frames, result.records, strict=True):
            assert env.store.contains(
                "est_ap", (frame.key, record.selected, env._est_tag)
            )
        # Every ensemble's true AP was computed once, by the peeks.
        assert _stage(env, "true_ap").misses == len(setup.frames) * len(
            env.all_ensembles
        )

    def test_skipping_records_keep_estimates(self, setup):
        """A skipped frame reuses its source's output *and* its estimate."""
        env = DetectionEnvironment(list(setup.detectors), setup.reference)
        result = FrameSkipper(MES(gamma=2)).run(env, setup.frames)
        skipped = []
        source = None
        for frame, record in zip(setup.frames, result.records, strict=True):
            if record.cost_ms == record.charged_ms == DIFF_DETECTOR_MS:
                skipped.append((source, record))
            else:
                source = frame
        assert skipped
        fresh = DetectionEnvironment(list(setup.detectors), setup.reference)
        for source, record in skipped:
            expected = fresh.evaluate(source, [record.selected], charge=False)
            est_ap = expected.evaluations[record.selected].est_ap
            assert record.est_ap == est_ap
            assert record.est_score == env.scoring(est_ap, record.normalized_cost)
        assert any(record.est_ap > 0.0 for _, record in skipped)
