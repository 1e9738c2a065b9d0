"""Tests for logical plans, rewrite rules and EXPLAIN rendering."""

import pytest

from repro.query.ast import Comparison, FieldRef, LogicalExpr
from repro.query.executor import QueryEngine
from repro.query.logical import (
    format_expr,
    frame_prefix_bound,
)
from repro.query.parser import parse_query
from repro.query.planner import PlanError


@pytest.fixture
def engine(detector_pool, lidar, small_video):
    engine = QueryEngine()
    engine.register_video("inputVideo", small_video)
    for det in detector_pool:
        engine.register_detector(det)
    engine.register_reference(lidar)
    return engine


MODELS = "yolov7-tiny-clear, yolov7-tiny-night, yolov7-tiny-rainy"


def _where(text: str):
    query = parse_query(
        f"SELECT frameID FROM (PROCESS v PRODUCE frameID USING BF(m)) "
        f"WHERE {text}"
    )
    return query.where


class TestFramePrefixBound:
    def test_strict_upper_bound(self):
        assert frame_prefix_bound(_where("frameID < 10")) == 10

    def test_inclusive_upper_bound(self):
        assert frame_prefix_bound(_where("frameID <= 10")) == 11

    def test_fractional_bounds(self):
        assert frame_prefix_bound(_where("frameID < 10.5")) == 11
        assert frame_prefix_bound(_where("frameID <= 10.5")) == 11

    def test_tightest_conjunct_wins(self):
        bound = frame_prefix_bound(
            _where("frameID < 20 AND COUNT('car') > 1 AND frameID <= 4")
        )
        assert bound == 5

    def test_negative_bound_clamps_to_zero(self):
        # The grammar has no negative literals; build the node directly.
        expr = Comparison(FieldRef("frameID"), "<", -3.0)
        assert frame_prefix_bound(expr) == 0

    def test_lower_bounds_not_pushed(self):
        assert frame_prefix_bound(_where("frameID > 5")) is None
        assert frame_prefix_bound(_where("frameID >= 5")) is None

    def test_disjunction_not_pushed(self):
        assert frame_prefix_bound(_where("frameID < 5 OR frameID < 9")) is None

    def test_negation_not_pushed(self):
        assert frame_prefix_bound(_where("NOT frameID < 5")) is None

    def test_other_fields_ignored(self):
        assert frame_prefix_bound(_where("score < 0.5")) is None


class TestFormatExpr:
    def test_roundtrip_of_composed_expression(self):
        expr = _where("COUNT('car') > 1 AND (EXISTS('bus') OR NOT frameID < 5)")
        assert format_expr(expr) == (
            "(COUNT('car') > 1 AND (EXISTS('bus') OR NOT frameID < 5))"
        )

    def test_count_star_and_confidence_floor(self):
        assert format_expr(_where("COUNT(*) > 0")) == "COUNT(*) > 0"
        assert (
            format_expr(_where("COUNT('car', conf > 0.5) >= 2"))
            == "COUNT('car', 0.5) >= 2"
        )


class TestRewrites:
    def test_pushdown_limits_scan(self, engine):
        logical = engine.logical_plan(
            f"SELECT frameID FROM (PROCESS inputVideo PRODUCE frameID, "
            f"Detections USING MES({MODELS}; lidar-ref) WITH gamma=2) "
            f"WHERE frameID < 5"
        )
        assert logical.limit == 5
        assert any("predicate pushdown" in r for r in logical.rewrites)

    def test_pushdown_skipped_for_prescan_algorithm(self, engine):
        # SGL calibrates on the whole video (supports_streaming=False);
        # truncating its input would change which detector it commits to.
        logical = engine.logical_plan(
            f"SELECT frameID FROM (PROCESS inputVideo PRODUCE frameID, "
            f"Detections USING SGL({MODELS})) WHERE frameID < 5"
        )
        assert logical.limit is None
        assert not any("pushdown" in r for r in logical.rewrites)

    def test_vacuous_bound_not_recorded(self, engine, small_video):
        logical = engine.logical_plan(
            f"SELECT frameID FROM (PROCESS inputVideo PRODUCE frameID, "
            f"Detections USING BF({MODELS})) "
            f"WHERE frameID < {len(small_video) + 100}"
        )
        assert logical.limit is None
        assert not any("pushdown" in r for r in logical.rewrites)

    def test_projection_pruning_elides_score(self, engine):
        logical = engine.logical_plan(
            f"SELECT frameID FROM (PROCESS inputVideo PRODUCE frameID, "
            f"Detections USING BF({MODELS}))"
        )
        assert logical.reference is None
        assert any("projection pruning" in r for r in logical.rewrites)

    def test_pruning_blocked_when_score_produced(self, engine):
        logical = engine.logical_plan(
            f"SELECT score FROM (PROCESS inputVideo PRODUCE frameID, score "
            f"USING BF({MODELS}))"
        )
        assert logical.reference == "lidar-ref"

    def test_pruning_blocked_when_predicate_reads_score(self, engine):
        logical = engine.logical_plan(
            f"SELECT frameID FROM (PROCESS inputVideo PRODUCE frameID "
            f"USING BF({MODELS})) WHERE score > 0.1"
        )
        assert logical.reference == "lidar-ref"

    def test_pruning_blocked_for_estimate_consuming_algorithm(self, engine):
        logical = engine.logical_plan(
            f"SELECT frameID FROM (PROCESS inputVideo PRODUCE frameID "
            f"USING MES({MODELS}) WITH gamma=2)"
        )
        assert logical.reference == "lidar-ref"

    def test_explicit_reference_blocks_pruning(self, engine):
        logical = engine.logical_plan(
            f"SELECT frameID FROM (PROCESS inputVideo PRODUCE frameID "
            f"USING BF({MODELS}; lidar-ref))"
        )
        assert logical.reference == "lidar-ref"

    def test_pruned_query_runs_without_any_registered_reference(
        self, detector_pool, small_video
    ):
        engine = QueryEngine()
        engine.register_video("inputVideo", small_video)
        for det in detector_pool:
            engine.register_detector(det)
        result = engine.execute(
            f"SELECT frameID FROM (PROCESS inputVideo PRODUCE frameID, "
            f"Detections USING BF({MODELS})) WHERE frameID < 4"
        )
        assert result.frame_ids() == [0, 1, 2, 3]

    def test_unpruned_query_without_reference_fails(
        self, detector_pool, small_video
    ):
        engine = QueryEngine()
        engine.register_video("inputVideo", small_video)
        for det in detector_pool:
            engine.register_detector(det)
        with pytest.raises(PlanError, match="no reference model"):
            engine.execute(
                f"SELECT frameID FROM (PROCESS inputVideo PRODUCE frameID "
                f"USING MES({MODELS}) WITH gamma=2)"
            )


class TestExplain:
    def test_golden_explain_with_both_rewrites(self, engine):
        rendered = engine.explain(
            "EXPLAIN SELECT frameID FROM (PROCESS inputVideo PRODUCE "
            "frameID, Detections USING BF(yolov7-tiny-clear)) "
            "WHERE frameID < 10"
        )
        assert rendered == (
            "logical plan:\n"
            "  Scan(video='inputVideo', first 10 of 30 frames)\n"
            "  Detect(algorithm=BF, models=[yolov7-tiny-clear], budget=none)\n"
            "  Fuse(method=wbf)\n"
            "  Score(skipped: projection pruning)\n"
            "  Filter(predicate=frameID < 10, min_duration=1)\n"
            "  Project(columns=[frameID])\n"
            "rewrites:\n"
            "  - predicate pushdown: frameID bound limits the scan to the "
            "first 10 of 30 frames\n"
            "  - projection pruning: no column or predicate reads score and "
            "BF ignores estimates; reference scoring elided\n"
            "physical plan:\n"
            "  FrameScanExec(video='inputVideo', frames=10 of 30)\n"
            "  DetectExec(algorithm=BF, backend=SerialBackend, "
            "scoring=true-only)\n"
            "  FilterExec(predicate=frameID < 10)\n"
            "  TemporalFilterExec(min_duration=1)\n"
            "  ProjectExec(columns=[frameID])"
        )

    def test_golden_explain_without_rewrites(self, engine):
        rendered = engine.explain(
            "SELECT frameID FROM (PROCESS inputVideo PRODUCE frameID, "
            "Detections, score USING MES(yolov7-tiny-clear, "
            "yolov7-tiny-night; lidar-ref) WITH gamma=2, budget=500)"
        )
        assert rendered == (
            "logical plan:\n"
            "  Scan(video='inputVideo', all 30 frames)\n"
            "  Detect(algorithm=MES, models=[yolov7-tiny-clear, "
            "yolov7-tiny-night], budget=500ms)\n"
            "  Fuse(method=wbf)\n"
            "  Score(reference=lidar-ref)\n"
            "  Filter(predicate=true, min_duration=1)\n"
            "  Project(columns=[frameID])\n"
            "rewrites:\n"
            "  (none)\n"
            "physical plan:\n"
            "  FrameScanExec(video='inputVideo', frames=30 of 30)\n"
            "  DetectExec(algorithm=MES, backend=SerialBackend, "
            "scoring=estimated+true)\n"
            "  FilterExec(predicate=true)\n"
            "  TemporalFilterExec(min_duration=1)\n"
            "  ProjectExec(columns=[frameID])"
        )

    def test_golden_explain_with_pushdown_scoring_and_duration(self, engine):
        rendered = engine.explain(
            "SELECT frameID, score FROM (PROCESS inputVideo PRODUCE "
            "frameID, Detections, score USING SW-MES(yolov7-tiny-clear, "
            "yolov7-tiny-night; lidar-ref) WITH window=8, budget=900) "
            "WHERE COUNT('car', conf > 0.5) >= 2 AND frameID <= 19 "
            "FOR AT LEAST 3 FRAMES"
        )
        assert rendered == (
            "logical plan:\n"
            "  Scan(video='inputVideo', first 20 of 30 frames)\n"
            "  Detect(algorithm=SW-MES, models=[yolov7-tiny-clear, "
            "yolov7-tiny-night], budget=900ms)\n"
            "  Fuse(method=wbf)\n"
            "  Score(reference=lidar-ref)\n"
            "  Filter(predicate=(COUNT('car', 0.5) >= 2 AND frameID <= 19), "
            "min_duration=3)\n"
            "  Project(columns=[frameID, score])\n"
            "rewrites:\n"
            "  - predicate pushdown: frameID bound limits the scan to the "
            "first 20 of 30 frames\n"
            "physical plan:\n"
            "  FrameScanExec(video='inputVideo', frames=20 of 30)\n"
            "  DetectExec(algorithm=SW-MES, backend=SerialBackend, "
            "scoring=estimated+true)\n"
            "  FilterExec(predicate=(COUNT('car', 0.5) >= 2 AND "
            "frameID <= 19))\n"
            "  TemporalFilterExec(min_duration=3)\n"
            "  ProjectExec(columns=[frameID, score])"
        )

    def test_execute_refuses_explain_queries(self, engine):
        with pytest.raises(PlanError, match="EXPLAIN"):
            engine.execute(
                f"EXPLAIN SELECT frameID FROM (PROCESS inputVideo PRODUCE "
                f"frameID USING BF({MODELS}))"
            )

    def test_explain_does_not_run_inference(self, engine):
        engine.explain(
            f"SELECT frameID FROM (PROCESS inputVideo PRODUCE frameID, "
            f"Detections USING MES({MODELS}; lidar-ref) WITH gamma=2)"
        )
        assert engine.store.stats().lookups == 0
