"""Unit tests for the temporal query qualifier (FOR AT LEAST n FRAMES)."""

import pytest

from repro.detection.types import FrameDetections
from repro.query.executor import Row
from repro.query.parser import ParseError, parse_query
from repro.query.physical import temporal_filter


def row(frame_id):
    return Row(
        frame_id=frame_id,
        detections=FrameDetections(frame_id),
        score=0.5,
        ensemble=("m1",),
    )


class TestParsing:
    def test_for_at_least_clause(self):
        query = parse_query(
            "SELECT frameID FROM (PROCESS v PRODUCE frameID USING BF(m1)) "
            "WHERE COUNT('car') >= 1 FOR AT LEAST 5 FRAMES"
        )
        assert query.min_duration == 5

    def test_default_duration_is_one(self):
        query = parse_query(
            "SELECT frameID FROM (PROCESS v PRODUCE frameID USING BF(m1)) "
            "WHERE COUNT('car') >= 1"
        )
        assert query.min_duration == 1

    def test_incomplete_clause_rejected(self):
        with pytest.raises(ParseError):
            parse_query(
                "SELECT frameID FROM (PROCESS v PRODUCE frameID USING BF(m1)) "
                "WHERE COUNT('car') >= 1 FOR AT LEAST 5"
            )

    def test_zero_duration_rejected(self):
        with pytest.raises(ParseError, match="at least 1 frame, got 0") as excinfo:
            parse_query(
                "SELECT frameID FROM (PROCESS v PRODUCE frameID USING BF(m1)) "
                "WHERE COUNT('car') >= 1 FOR AT LEAST 0 FRAMES"
            )
        assert excinfo.value.position is None

    @pytest.mark.parametrize("count", ["2.5", "2.0"])
    def test_fractional_duration_rejected_at_the_number(self, count):
        text = (
            "SELECT frameID FROM (PROCESS v PRODUCE frameID USING BF(m1)) "
            f"WHERE COUNT('car') >= 1 FOR AT LEAST {count} FRAMES"
        )
        with pytest.raises(ParseError, match="expected a whole number") as excinfo:
            parse_query(text)
        assert excinfo.value.position == text.index(count)


class TestApplyMinDuration:
    def test_short_runs_filtered(self):
        rows = [row(i) for i in (1, 2, 5, 6, 7, 10)]
        kept = temporal_filter(rows, 3)
        assert [r.frame_id for r in kept] == [5, 6, 7]

    def test_exact_length_run_kept(self):
        rows = [row(i) for i in (1, 2, 3)]
        assert len(temporal_filter(rows, 3)) == 3

    def test_trailing_run_kept(self):
        rows = [row(i) for i in (0, 5, 6, 7, 8)]
        kept = temporal_filter(rows, 2)
        assert [r.frame_id for r in kept] == [5, 6, 7, 8]

    def test_empty_rows(self):
        assert temporal_filter([], 3) == []

    def test_duration_one_keeps_everything(self):
        rows = [row(i) for i in (1, 5, 9)]
        assert temporal_filter(rows, 1) == rows


class TestEndToEnd:
    def test_temporal_query(self, detector_pool, lidar, small_video):
        from repro.query.executor import QueryEngine

        engine = QueryEngine()
        engine.register_video("v", small_video)
        for det in detector_pool:
            engine.register_detector(det)
        engine.register_reference(lidar)

        plain = engine.execute(
            "SELECT frameID FROM (PROCESS v PRODUCE frameID, Detections "
            "USING BF(yolov7-tiny-clear, yolov7-tiny-night)) "
            "WHERE COUNT(*) >= 2"
        )
        sustained = engine.execute(
            "SELECT frameID FROM (PROCESS v PRODUCE frameID, Detections "
            "USING BF(yolov7-tiny-clear, yolov7-tiny-night)) "
            "WHERE COUNT(*) >= 2 FOR AT LEAST 3 FRAMES"
        )
        assert len(sustained) <= len(plain)
        # Every surviving frame sits in a >= 3-frame consecutive run.
        ids = sustained.frame_ids()
        for fid in ids:
            run = {fid}
            lo, hi = fid - 1, fid + 1
            while lo in ids:
                run.add(lo)
                lo -= 1
            while hi in ids:
                run.add(hi)
                hi += 1
            assert len(run) >= 3
