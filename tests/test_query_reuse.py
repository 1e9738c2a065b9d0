"""v1/v2 equivalence and cross-query reuse guarantees.

The operator executor must produce bit-identical rows to the old
straight-line executor (rewrites only remove provably discarded work),
and a warm materialized store must change detector-invocation counts
only — never a result byte.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

import pytest

from repro.core.environment import DetectionEnvironment
from repro.engine.backends import wall_timer
from repro.obs import Observability
from repro.query.executor import QueryEngine
from repro.query.physical import Row
from repro.query.predicates import evaluate_expr
from repro.simulation.lidar import SimulatedLidar

MODELS = "yolov7-tiny-clear, yolov7-tiny-night, yolov7-tiny-rainy"


class OtherReference(SimulatedLidar):
    """A second reference model: another LiDAR noise stream, another name."""

    name = "other-ref"


def _v1_execute(engine: QueryEngine, text: str) -> list[Row]:
    """The seed repo's straight-line executor, kept as the equivalence
    reference: bind, run the algorithm over the *whole* video with a
    full-scoring environment, materialize rows, then filter."""
    plan = engine.plan(text)
    process = plan.query.process
    frames = engine.catalog.video(process.video)
    detectors = [engine.catalog.detector(m) for m in process.models]
    reference_name = (
        process.reference
        if process.reference is not None
        else engine.catalog.default_reference()
    )
    env = DetectionEnvironment(
        detectors=detectors,
        reference=engine.catalog.reference(reference_name),
        scoring=engine.scoring,
        fusion=engine.fusion,
    )
    detections_by_index = {}

    def capture(frame, batch, record):
        detections_by_index[record.frame_index] = batch.evaluations[
            record.selected
        ].detections

    selection = plan.algorithm.run(
        env, frames, budget_ms=plan.budget_ms, observers=[capture]
    )
    rows = []
    for record in selection.records:
        row = Row(
            frame_id=record.frame_index,
            detections=detections_by_index[record.frame_index],
            score=record.est_score,
            ensemble=record.selected,
        )
        if plan.query.where is None or evaluate_expr(
            plan.query.where,
            row.detections,
            {"frameid": float(row.frame_id), "score": row.score},
        ):
            rows.append(row)
    return rows


@pytest.fixture
def make_engine(detector_pool, lidar, small_video):
    def build(**kwargs):
        engine = QueryEngine(**kwargs)
        engine.register_video("inputVideo", small_video)
        for det in detector_pool:
            engine.register_detector(det)
        engine.register_reference(lidar)
        return engine

    return build


class TestV1V2Equivalence:
    @pytest.mark.parametrize(
        "query",
        [
            # Pushdown fires (MES is causal): rows must still match the
            # full-scan v1 run bit for bit.
            f"SELECT frameID FROM (PROCESS inputVideo PRODUCE frameID, "
            f"Detections, score USING MES({MODELS}; lidar-ref) "
            f"WITH gamma=2) WHERE frameID < 12",
            # No rewrite applies.
            f"SELECT frameID FROM (PROCESS inputVideo PRODUCE frameID, "
            f"Detections, score USING MES({MODELS}; lidar-ref) "
            f"WITH gamma=2) WHERE COUNT('car') >= 2",
            # Budgeted MES-B.
            f"SELECT frameID FROM (PROCESS inputVideo PRODUCE frameID, "
            f"Detections, score USING MES-B({MODELS}; lidar-ref) "
            f"WITH budget=300, gamma=2)",
            # SGL: pushdown must NOT fire (pre-scan calibration).
            f"SELECT frameID FROM (PROCESS inputVideo PRODUCE frameID, "
            f"Detections, score USING SGL({MODELS}; lidar-ref)) "
            f"WHERE frameID < 6",
        ],
    )
    def test_rows_bit_identical(self, make_engine, query):
        engine = make_engine()
        assert engine.execute(query).rows == _v1_execute(engine, query)

    def test_pruned_query_rows_match_except_score(self, make_engine):
        """Projection pruning zeroes the (never read) score column and
        elides REF scoring; every surfaced column is unchanged."""
        query = (
            f"SELECT frameID FROM (PROCESS inputVideo PRODUCE frameID, "
            f"Detections USING BF({MODELS})) WHERE COUNT('car') >= 2"
        )
        engine = make_engine()
        v2 = engine.execute(query).rows
        v1 = _v1_execute(make_engine(), query)
        assert [r.frame_id for r in v2] == [r.frame_id for r in v1]
        assert [r.detections for r in v2] == [r.detections for r in v1]
        assert [r.ensemble for r in v2] == [r.ensemble for r in v1]
        assert all(r.score == 0.0 for r in v2)


def _detector_invocations(obs: Observability) -> float:
    return sum(
        value
        for (name, _), value in obs.snapshot().counters.items()
        if name == "repro_detector_invocations_total"
    )


def _reference_invocations(obs: Observability) -> float:
    return sum(
        value
        for (name, _), value in obs.snapshot().counters.items()
        if name == "repro_reference_invocations_total"
    )


def _records_by_stage(directory: Path) -> Counter[str]:
    """How many records each stage has in a materialized store's segments."""
    return Counter(
        json.loads(line.split("\t", 1)[1])[0]
        for segment in directory.glob("segment-*.jsonl")
        for line in segment.read_text().splitlines()
    )


class TestCrossQueryReuse:
    QUERY = (
        f"SELECT frameID FROM (PROCESS inputVideo PRODUCE frameID, "
        f"Detections, score USING MES({MODELS}; lidar-ref) WITH gamma=2) "
        f"WHERE frameID < 15"
    )

    def test_shared_store_reuses_within_engine(self, make_engine):
        obs = Observability(level="metrics", timer=wall_timer)
        engine = make_engine(obs=obs)
        first = engine.execute(self.QUERY)
        cold = _detector_invocations(obs)
        assert cold > 0
        second = engine.execute(self.QUERY)
        assert _detector_invocations(obs) == cold  # zero new inferences
        assert second.rows == first.rows

    def test_warm_matstore_runs_zero_detector_invocations(
        self, make_engine, tmp_path
    ):
        obs_cold = Observability(level="metrics", timer=wall_timer)
        with make_engine(obs=obs_cold, materialize_dir=tmp_path) as engine:
            first = engine.execute(self.QUERY)
        assert _detector_invocations(obs_cold) > 0

        # A fresh engine (fresh process, as far as state is concerned).
        obs_warm = Observability(level="metrics", timer=wall_timer)
        with make_engine(obs=obs_warm, materialize_dir=tmp_path) as engine:
            second = engine.execute(self.QUERY)
            assert _detector_invocations(obs_warm) == 0
            assert _reference_invocations(obs_warm) == 0
            assert engine.store.stats().tier_hits > 0
        assert second.rows == first.rows  # warm store changes no result bytes

    def test_warm_query_fuses_only_the_frames_it_serves(
        self, make_engine, tmp_path
    ):
        with make_engine(materialize_dir=tmp_path) as engine:
            cold = engine.execute(self.QUERY)
            cold_records = engine.matstore.stats().stores
        obs = Observability(level="metrics", timer=wall_timer)
        with make_engine(obs=obs, materialize_dir=tmp_path) as engine:
            warm = engine.execute(self.QUERY)
            matstore = engine.matstore.stats()
            fused = engine.store.stats().stages["fused"]
        assert warm.rows == cold.rows
        stages = {
            json.loads(line.split("\t", 1)[1])[0]
            for segment in tmp_path.glob("segment-*.jsonl")
            for line in segment.read_text().splitlines()
        }
        assert stages == {"detector", "reference", "est_ap", "true_ap"}
        # Every AP came from the store; only each served frame's boxes
        # were fused, from the stored detector outputs.
        assert fused.misses == fused.lookups == warm.selection.frames_processed
        assert _detector_invocations(obs) == _reference_invocations(obs) == 0
        assert matstore.hit_rate == 1.0
        assert matstore.stores == 0
        assert matstore.records == cold_records

    def test_warm_query_reads_a_store_holding_unread_true_aps(
        self, make_engine, tmp_path, monkeypatch
    ):
        """A directory written while every evaluation's true AP was
        computed, read or not, still serves a warm query with no new
        record; a cold query stores one true AP per served frame."""
        evaluation = DetectionEnvironment._evaluation

        def eager(env, *args, **kwargs):
            result = evaluation(env, *args, **kwargs)
            assert result.true_ap >= 0.0
            return result

        eager_dir, lazy_dir = tmp_path / "eager", tmp_path / "lazy"
        with monkeypatch.context() as patch:
            patch.setattr(DetectionEnvironment, "_evaluation", eager)
            with make_engine(materialize_dir=eager_dir) as engine:
                cold = engine.execute(self.QUERY)
        with make_engine(materialize_dir=lazy_dir) as engine:
            assert engine.execute(self.QUERY).rows == cold.rows
        served = cold.selection.frames_processed
        assert _records_by_stage(lazy_dir)["true_ap"] == served
        assert _records_by_stage(eager_dir)["true_ap"] > served

        with make_engine(materialize_dir=eager_dir) as engine:
            warm = engine.execute(self.QUERY)
            matstore = engine.matstore.stats()
        assert warm.rows == cold.rows
        assert matstore.stores == 0
        assert matstore.hit_rate == 1.0

    def test_overlapping_query_with_different_algorithm_reuses(
        self, make_engine, tmp_path
    ):
        warmup = (
            f"SELECT frameID FROM (PROCESS inputVideo PRODUCE frameID, "
            f"Detections, score USING BF({MODELS}; lidar-ref)) "
            f"WHERE frameID < 15"
        )
        with make_engine(materialize_dir=tmp_path) as engine:
            engine.execute(warmup)

        obs = Observability(level="metrics", timer=wall_timer)
        overlapping = (
            f"SELECT frameID FROM (PROCESS inputVideo PRODUCE frameID, "
            f"Detections, score USING MES({MODELS}; lidar-ref) "
            f"WITH gamma=2) WHERE frameID < 10"
        )
        with make_engine(obs=obs, materialize_dir=tmp_path) as engine:
            result = engine.execute(overlapping)
        # Brute force materialized every detector output and every ensemble
        # evaluation for frames 0..14; MES only ever touches a subset of
        # those, so the overlapping query re-infers nothing.
        assert _detector_invocations(obs) == 0
        assert result.frame_ids() == list(range(10))

    def test_different_reference_does_not_collide(
        self, make_engine, detector_pool, small_video, tmp_path
    ):
        """Context-tagged keys: changing REF must change estimates, not
        resurrect the other configuration's cached ones."""
        query_tpl = (
            "SELECT frameID FROM (PROCESS inputVideo PRODUCE frameID, "
            "Detections, score USING MES(%s; %%s) WITH gamma=2) "
            "WHERE frameID < 8" % MODELS
        )
        with make_engine(materialize_dir=tmp_path) as engine:
            scores_a = engine.execute(query_tpl % "lidar-ref").column("score")

        engine = QueryEngine(materialize_dir=tmp_path)
        engine.register_video("inputVideo", small_video)
        for det in detector_pool:
            engine.register_detector(det)
        other = OtherReference(seed=99)
        engine.register_reference(other)
        with engine:
            scores_b = engine.execute(query_tpl % "other-ref").column("score")
        assert scores_a != scores_b
