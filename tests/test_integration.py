"""Cross-module integration tests: end-to-end shapes at small scale."""

import pytest

from repro.core.baselines import BruteForce, Oracle, RandomSelection
from repro.core.environment import DetectionEnvironment, EvaluationStore
from repro.core.mes import MES
from repro.core.scoring import LinearScore, WeightedLogScore
from repro.ensembling.nms import NonMaximumSuppression
from repro.runner.experiment import run_algorithms, standard_setup


class TestEndToEnd:
    def test_standard_setup_to_selection(self):
        setup = standard_setup(
            "nusc-rainy", trial=0, scale=0.03, m=3, max_frames=60
        )
        env = DetectionEnvironment(
            list(setup.detectors), setup.reference, scoring=WeightedLogScore(0.5)
        )
        result = MES(gamma=3).run(env, setup.frames)
        assert result.frames_processed == 60
        assert 0 < result.s_sum < 60
        assert env.clock.detector_ms > 0

    def test_shared_cache_is_result_invariant(self, detector_pool, lidar, small_video):
        """Sharing a cache must not change any algorithm's output."""
        scoring = WeightedLogScore(0.5)

        def run(cache):
            env = DetectionEnvironment(
                detector_pool, lidar, scoring=scoring, store=cache
            )
            return MES(gamma=3).run(env, small_video.frames)

        isolated = run(None)
        shared = EvaluationStore()
        # Warm the cache with a different algorithm first.
        env_warm = DetectionEnvironment(
            detector_pool, lidar, scoring=scoring, store=shared
        )
        RandomSelection(seed=9).run(env_warm, small_video.frames)
        cached = run(shared)
        assert [r.selected for r in cached.records] == [
            r.selected for r in isolated.records
        ]
        assert cached.s_sum == pytest.approx(isolated.s_sum)

    def test_alternative_fusion_method_works_end_to_end(self):
        setup = standard_setup(
            "nusc-clear", trial=0, scale=0.02, m=2, max_frames=25
        )
        results = run_algorithms(
            setup,
            {"BF": BruteForce, "MES": lambda: MES(gamma=2)},
            fusion=NonMaximumSuppression(),
        )
        assert results["MES"].frames_processed == 25

    def test_alternative_scoring_function_works_end_to_end(self):
        setup = standard_setup(
            "nusc-clear", trial=0, scale=0.02, m=2, max_frames=25
        )
        results = run_algorithms(
            setup,
            {"MES": lambda: MES(gamma=2)},
            scoring=LinearScore(0.6),
        )
        for record in results["MES"].records:
            assert 0.0 <= record.true_score <= 1.0

    def test_oracle_bounds_everyone_on_every_frame(self, detector_pool, lidar, small_video):
        cache = EvaluationStore()
        scoring = WeightedLogScore(0.5)

        def run(algo):
            env = DetectionEnvironment(
                detector_pool, lidar, scoring=scoring, store=cache
            )
            return algo.run(env, small_video.frames)

        opt = run(Oracle())
        mes = run(MES(gamma=3))
        for opt_rec, mes_rec in zip(opt.records, mes.records, strict=True):
            assert opt_rec.true_score >= mes_rec.true_score - 1e-9

    def test_domain_specialization_visible_in_selection(self):
        """On a night video, MES must favor the night-trained detector."""
        setup = standard_setup(
            "nusc-night", trial=0, scale=0.1, m=3, max_frames=400
        )
        env = DetectionEnvironment(
            list(setup.detectors), setup.reference, scoring=WeightedLogScore(0.5)
        )
        result = MES(gamma=5).run(env, setup.frames)
        usage = {name: 0 for name in env.model_names}
        for record in result.records:
            for member in record.selected:
                usage[member] += 1
        assert usage["yolov7-tiny-night"] == max(usage.values())

    def test_estimated_ranking_tracks_true_ranking(self):
        """REF-based AP must rank ensembles like ground-truth AP (Section 2.3)."""
        setup = standard_setup(
            "nusc-night", trial=0, scale=0.05, m=3, max_frames=120
        )
        env = DetectionEnvironment(
            list(setup.detectors), setup.reference, scoring=WeightedLogScore(0.5)
        )
        est_totals = {key: 0.0 for key in env.all_ensembles}
        true_totals = {key: 0.0 for key in env.all_ensembles}
        for frame in setup.frames:
            batch = env.evaluate(frame, env.all_ensembles, charge=False)
            for key, ev in batch.evaluations.items():
                est_totals[key] += ev.est_ap
                true_totals[key] += ev.true_ap
        est_rank = sorted(env.all_ensembles, key=lambda k: -est_totals[k])
        true_rank = sorted(env.all_ensembles, key=lambda k: -true_totals[k])
        # Spearman-style agreement: rank correlation must be strongly
        # positive (the paper's requirement is relative ranking, Eq. 3).
        positions = {key: i for i, key in enumerate(true_rank)}
        displacement = sum(
            abs(positions[key] - i) for i, key in enumerate(est_rank)
        )
        max_displacement = len(est_rank) ** 2 / 2
        assert displacement < 0.3 * max_displacement
