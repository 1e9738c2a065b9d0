"""Unit tests for the detection environment (costs, caching, scoring)."""

import inspect
from dataclasses import replace

import pytest

from repro.core.environment import DetectionEnvironment, EvaluationStore, method_tag
from repro.core.scoring import WeightedLogScore
from repro.detection.metrics import mean_average_precision
from repro.ensembling.registry import available_methods, create_method
from repro.simulation.detectors import SimulatedDetector
from repro.simulation.profiles import make_profile


class TestConstruction:
    def test_pool_properties(self, environment):
        assert environment.num_models == 3
        assert len(environment.all_ensembles) == 7
        assert environment.full_ensemble == environment.model_names

    def test_duplicate_names_rejected(self, lidar):
        det = SimulatedDetector(make_profile("yolov7-tiny", "clear"), seed=1)
        with pytest.raises(ValueError, match="duplicate"):
            DetectionEnvironment([det, det], lidar)

    def test_empty_pool_rejected(self, lidar):
        with pytest.raises(ValueError):
            DetectionEnvironment([], lidar)

    def test_unknown_detector_lookup(self, environment):
        with pytest.raises(KeyError):
            environment.detector("nonexistent")


class TestEvaluate:
    def test_all_ensembles_evaluated(self, environment, simple_frame):
        batch = environment.evaluate(simple_frame, environment.all_ensembles)
        assert set(batch.evaluations) == set(environment.all_ensembles)

    def test_evaluation_fields_consistent(self, environment, simple_frame):
        batch = environment.evaluate(simple_frame, environment.all_ensembles)
        for key, ev in batch.evaluations.items():
            assert ev.key == key
            assert ev.cost_ms == pytest.approx(ev.inference_ms + ev.ensembling_ms)
            assert 0.0 <= ev.normalized_cost <= 1.0
            assert 0.0 <= ev.est_ap <= 1.0
            assert 0.0 <= ev.true_ap <= 1.0
            assert 0.0 <= ev.est_score <= 1.0
            assert 0.0 <= ev.true_score <= 1.0

    def test_cost_monotone_in_ensemble_size(self, environment, simple_frame):
        batch = environment.evaluate(simple_frame, environment.all_ensembles)
        evaluations = batch.evaluations
        for key, ev in evaluations.items():
            for other_key, other in evaluations.items():
                if set(key) < set(other_key):
                    assert ev.cost_ms < other.cost_ms

    def test_detector_billed_once_per_frame(self, environment, simple_frame):
        """Eq. 12/14: union-of-members inference, not per-ensemble."""
        batch = environment.evaluate(simple_frame, environment.all_ensembles)
        singles_ms = sum(
            batch.evaluations[(name,)].inference_ms
            for name in environment.model_names
        )
        assert batch.detector_ms == pytest.approx(singles_ms)
        # Summing inference over all 7 ensembles would be far larger.
        naive = sum(ev.inference_ms for ev in batch.evaluations.values())
        assert naive > batch.detector_ms * 2

    def test_charge_flag_controls_clock(self, environment, simple_frame):
        environment.evaluate(simple_frame, environment.all_ensembles, charge=False)
        assert environment.clock.total_ms == 0.0
        environment.evaluate(simple_frame, environment.all_ensembles, charge=True)
        assert environment.clock.detector_ms > 0.0
        assert environment.clock.reference_ms > 0.0

    def test_reference_billed_once_per_frame(self, environment, simple_frame):
        b1 = environment.evaluate(simple_frame, [environment.full_ensemble])
        b2 = environment.evaluate(simple_frame, [environment.full_ensemble])
        assert b1.reference_ms > 0.0
        assert b2.reference_ms == 0.0

    def test_unknown_model_in_key(self, environment, simple_frame):
        with pytest.raises(KeyError):
            environment.evaluate(simple_frame, [("ghost-model",)])

    def test_empty_keys_rejected(self, environment, simple_frame):
        with pytest.raises(ValueError):
            environment.evaluate(simple_frame, [])

    def test_duplicate_keys_collapsed(self, environment, simple_frame):
        key = (environment.model_names[0],)
        batch = environment.evaluate(simple_frame, [key, key])
        assert len(batch.evaluations) == 1

    def test_deterministic_evaluations(self, detector_pool, lidar, simple_frame):
        def run():
            env = DetectionEnvironment(
                detector_pool, lidar, scoring=WeightedLogScore(0.5)
            )
            return env.evaluate(simple_frame, env.all_ensembles, charge=False)

        a, b = run(), run()
        for key in a.evaluations:
            assert a.evaluations[key].est_score == b.evaluations[key].est_score
            assert a.evaluations[key].true_ap == b.evaluations[key].true_ap


class TestFusedBoxes:
    """An evaluation's boxes are fused on demand, once, and compared."""

    def test_boxes_equal_an_eager_fusion_of_the_members(
        self, environment, simple_frame
    ):
        batch = environment.evaluate(simple_frame, environment.all_ensembles)
        for evaluation in batch.evaluations.values():
            members = [
                environment.detector(model).detect(simple_frame).detections
                for model in evaluation.realized_key
            ]
            assert evaluation.detections == environment.fusion.fuse(members)

    def test_each_ensemble_fused_at_most_once(
        self, environment, simple_frame, monkeypatch
    ):
        calls = []
        fuse = environment.fusion.fuse
        monkeypatch.setattr(
            environment.fusion,
            "fuse",
            lambda outputs, scope=None: calls.append(1) or fuse(outputs, scope),
        )
        batch = environment.evaluate(simple_frame, environment.all_ensembles)
        # Every estimated AP missed, so each ensemble was fused, once.
        assert len(calls) == len(batch.evaluations)
        for evaluation in batch.evaluations.values():
            assert evaluation.detections is evaluation.detections
            # The true AP misses too, and scores the boxes already fused.
            assert 0.0 <= evaluation.true_ap <= 1.0
        assert len(calls) == len(batch.evaluations)

    def test_boxes_read_only_when_an_ap_misses_or_a_caller_asks(
        self, detector_pool, lidar, simple_frame
    ):
        store = EvaluationStore()
        warm = DetectionEnvironment(detector_pool, lidar, store=store)
        warmed = warm.evaluate(simple_frame, warm.all_ensembles)
        # A true AP is computed (and stored) only when read: read them all.
        assert all(e.true_ap >= 0.0 for e in warmed.evaluations.values())
        env = DetectionEnvironment(detector_pool, lidar, store=store)

        def fused_lookups():
            return store.stats().stages["fused"].lookups

        before = fused_lookups()
        batch = env.evaluate(simple_frame, env.all_ensembles)
        best = env.peek_best(simple_frame, env.all_ensembles)
        assert all(e.true_ap >= 0.0 for e in batch.evaluations.values())
        assert fused_lookups() == before  # every AP hit the store
        for evaluation in [*batch.evaluations.values(), best]:
            first = evaluation.detections
            assert evaluation.detections is first
        assert fused_lookups() == before + len(batch.evaluations) + 1

    def test_equality_compares_the_boxes(self, environment, simple_frame):
        batch = environment.evaluate(simple_frame, environment.all_ensembles)
        first, *others = batch.evaluations.values()
        other = next(e for e in others if e.detections != first.detections)
        assert replace(first, _boxes=other._boxes) != first
        same = replace(first, _boxes=first._boxes)
        assert same == first
        assert hash(same) == hash(first)


class TestTrueApOnDemand:
    """An evaluation's true AP is computed at its first read, once."""

    def test_not_looked_up_until_read(self, environment, simple_frame):
        batch = environment.evaluate(simple_frame, environment.all_ensembles)
        assert "true_ap" not in environment.store.stats().stages
        evaluation = batch.evaluations[environment.full_ensemble]
        assert 0.0 <= evaluation.true_score <= 1.0
        assert environment.store.stats().stages["true_ap"].lookups == 1

    def test_second_read_makes_no_store_call(
        self, environment, simple_frame, monkeypatch
    ):
        batch = environment.evaluate(simple_frame, environment.all_ensembles)
        evaluation = batch.evaluations[environment.full_ensemble]
        calls = []
        get_or_compute = environment.store.get_or_compute
        monkeypatch.setattr(
            environment.store,
            "get_or_compute",
            lambda *args: calls.append(args[0]) or get_or_compute(*args),
        )
        first = (evaluation.true_ap, evaluation.true_score)
        assert calls == ["true_ap"]
        assert (evaluation.true_ap, evaluation.true_score) == first
        assert calls == ["true_ap"]

    def test_equals_the_ap_of_the_boxes_against_ground_truth(
        self, environment, simple_frame
    ):
        batch = environment.evaluate(simple_frame, environment.all_ensembles)
        truth = simple_frame.ground_truth_detections()
        for evaluation in batch.evaluations.values():
            true_ap = mean_average_precision(evaluation.detections, truth, 0.5)
            assert evaluation.true_ap == true_ap
            assert evaluation.true_score == environment.scoring(
                true_ap, evaluation.normalized_cost
            )

    def test_equality_compares_the_true_ap(self, environment, simple_frame):
        batch = environment.evaluate(simple_frame, environment.all_ensembles)
        first, *others = batch.evaluations.values()
        other = next(e for e in others if e.true_ap != first.true_ap)
        assert replace(first, _true=other._true) != first
        same = replace(first, _true=first._true)
        assert same == first
        assert hash(same) == hash(first)

    def test_selection_run_computes_one_true_ap_per_frame(
        self, detector_pool, lidar, small_video
    ):
        from repro.core.mes import MES

        frames = small_video.frames[:12]
        env = DetectionEnvironment(detector_pool, lidar, store=EvaluationStore())
        result = MES(gamma=2).run(env, frames)
        stages = env.store.stats().stages
        assert result.frames_processed == len(frames)
        # MES evaluates several ensembles per frame; only the served one's
        # true AP is read, by its record.
        assert stages["est_ap"].misses > len(frames)
        assert stages["true_ap"].misses == stages["true_ap"].lookups == len(frames)


class TestSharedCache:
    def test_cache_shared_across_environments(self, detector_pool, lidar, simple_frame):
        store = EvaluationStore()
        env1 = DetectionEnvironment(detector_pool, lidar, store=store)
        env1.evaluate(simple_frame, env1.all_ensembles, charge=False)
        populated = len(store)
        misses_after_first = store.stats().misses
        env2 = DetectionEnvironment(detector_pool, lidar, store=store)
        env2.evaluate(simple_frame, env2.all_ensembles, charge=False)
        # No new detector inference happened: only cache hits, no new
        # entries, no new misses.
        assert len(store) == populated
        assert store.stats().misses == misses_after_first
        assert store.stats().hits > 0

    def test_clocks_are_independent(self, detector_pool, lidar, simple_frame):
        cache = EvaluationStore()
        env1 = DetectionEnvironment(detector_pool, lidar, store=cache)
        env2 = DetectionEnvironment(detector_pool, lidar, store=cache)
        env1.evaluate(simple_frame, env1.all_ensembles, charge=True)
        assert env2.clock.total_ms == 0.0


class TestNormalization:
    def test_normalized_cost_clipped(self, environment):
        assert environment.normalized_cost(1e9) == 1.0
        assert environment.normalized_cost(0.0) == 0.0

    def test_negative_cost_rejected(self, environment):
        with pytest.raises(ValueError):
            environment.normalized_cost(-1.0)

    def test_full_ensemble_below_cmax(self, environment, simple_frame):
        batch = environment.evaluate(simple_frame, [environment.full_ensemble])
        ev = batch.evaluations[environment.full_ensemble]
        assert ev.normalized_cost < 1.0


class TestOverhead:
    def test_charge_overhead(self, environment):
        environment.charge_overhead(31)
        assert environment.clock.overhead_ms > 0.0

    def test_negative_overhead_rejected(self, environment):
        with pytest.raises(ValueError):
            environment.charge_overhead(-1)


class TestPrefetch:
    def test_prefetch_counts_and_warms_every_output(
        self, detector_pool, lidar, small_video
    ):
        env = DetectionEnvironment(detectors=detector_pool, reference=lidar)
        frames = small_video.frames[:6]
        executed = env.prefetch(frames)
        # One job per (model, frame) plus one REF job per frame.
        assert executed == len(frames) * (len(detector_pool) + 1)
        for frame in frames:
            for model in env.model_names:
                assert env.store.contains("detector", (frame.key, model))
            assert env.store.contains("reference", (frame.key, "lidar-ref"))
        # Everything is warm: a second prefetch does nothing.
        assert env.prefetch(frames) == 0
        # Membership tests are not lookups: prefetching counts none.
        assert env.store.stats().lookups == 0

    def test_prefetch_is_result_neutral(
        self, detector_pool, lidar, small_video
    ):
        from repro.core.mes import MES

        frames = small_video.frames[:10]
        plain_env = DetectionEnvironment(
            detectors=detector_pool, reference=lidar
        )
        plain = MES().run(plain_env, frames)
        warm_env = DetectionEnvironment(
            detectors=detector_pool, reference=lidar
        )
        warm_env.prefetch(frames)
        warmed = MES().run(warm_env, frames)
        # Prefetch moves work earlier; it must not move any number.
        assert warmed.records == plain.records
        assert warm_env.clock.snapshot() == plain_env.clock.snapshot()

    def test_prefetch_makes_later_evaluations_pure_hits(
        self, detector_pool, lidar, small_video
    ):
        env = DetectionEnvironment(detectors=detector_pool, reference=lidar)
        frames = small_video.frames[:4]
        env.prefetch(frames)
        before = env.store.stats()
        for frame in frames:
            env.evaluate(frame, [env.full_ensemble])
        after = env.store.stats()
        detector = after.stages["detector"]
        # Evaluation looked detector outputs up without recomputing any.
        assert detector.misses == before.stages["detector"].misses


#: A valid non-default value for every fusion-method constructor parameter.
_ALTERNATE_PARAMS = {
    "iou_threshold": 0.3,
    "confidence_threshold": 0.2,
    "conf_type": "max",
    "method": "linear",
    "sigma": 0.1,
    "score_threshold": 0.1,
    "vote_iou_threshold": 0.7,
    "min_votes": 2,
}


class TestMethodTag:
    """``method_tag`` is the fusion part of fused, AP and matstore keys."""

    @pytest.mark.parametrize("name", available_methods())
    def test_same_configuration_same_tag(self, name):
        assert method_tag(create_method(name)) == method_tag(create_method(name))

    @pytest.mark.parametrize("name", available_methods())
    def test_each_parameter_changes_tag(self, name):
        method = create_method(name)
        default = method_tag(method)
        params = inspect.signature(type(method)).parameters
        assert params
        for param in params:
            changed = create_method(name, **{param: _ALTERNATE_PARAMS[param]})
            assert method_tag(changed) != default, param

    def test_default_wbf_tag_is_pinned(self):
        # Persisted matstore segments are keyed by this string; changing it
        # orphans every store written before.
        assert method_tag(create_method("wbf")) == (
            "wbf(conf_type='avg',confidence_threshold=0.0,iou_threshold=0.55)"
        )
