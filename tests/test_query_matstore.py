"""Tests for the persistent materialized detection store."""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from tests.conftest import make_detection

from repro.detection.boxes import BBox
from repro.detection.types import Detection, FrameDetections
from repro.engine.store import EvaluationStore
from repro.obs import Observability
from repro.query.executor import QueryEngine
from repro.query.matstore import (
    FORMAT_VERSION,
    MATERIALIZED_STAGES,
    MaterializationError,
    MaterializedDetectionStore,
)
from repro.runner.experiment import standard_setup
from repro.simulation.detectors import DetectorOutput

#: Every wait on a child process is bounded by this many seconds.
_CHILD_TIMEOUT_S = 60


def _sample_output() -> DetectorOutput:
    detections = FrameDetections(
        frame_index=3,
        detections=(
            make_detection(label="car", conf=0.875, x1=10.5, y1=20.25),
            make_detection(label="bus", conf=0.5, x1=0.0, y1=1.0, source="a"),
        ),
        source="det-a",
    )
    return DetectorOutput(detections=detections, inference_time_ms=12.125)


_EDGE_FLOATS = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e308, 0.1 + 0.2]
_coords = st.one_of(
    st.sampled_from(_EDGE_FLOATS),
    st.floats(allow_nan=False, allow_infinity=False),
)
_confidences = st.one_of(
    st.sampled_from([-0.0, 5e-324, 0.1 + 0.2, 1.0]), st.floats(0.0, 1.0)
)
_labels = st.one_of(
    st.sampled_from(["car", "café", "自転車", "🚗", "tab\tand\nnewline"]),
    st.text(min_size=1),
)
_sources = st.one_of(st.none(), _labels)


@st.composite
def _detections(draw):
    x1, x2 = sorted([draw(_coords), draw(_coords)])
    y1, y2 = sorted([draw(_coords), draw(_coords)])
    return Detection(
        BBox(x1, y1, x2, y2),
        draw(_confidences),
        draw(_labels),
        draw(_sources),
        draw(st.one_of(st.none(), st.integers(min_value=0))),
    )


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(
        detections=st.lists(_detections(), max_size=5),
        source=_sources,
        inference_ms=_coords,
    )
    def test_edge_values_reopen_exactly(self, detections, source, inference_ms):
        frame = FrameDetections(
            frame_index=7, detections=tuple(detections), source=source
        )
        records = [
            ("detector", ("v#7", "det"), DetectorOutput(frame, inference_ms)),
            ("reference", ("v#7", "ref"), DetectorOutput(frame, inference_ms)),
            ("est_ap", ("v#7", ("a",), "t"), inference_ms),
        ]
        with tempfile.TemporaryDirectory() as root:
            with MaterializedDetectionStore(root) as store:
                for stage, key, value in records:
                    store.store(stage, key, value)
            reopened = MaterializedDetectionStore(root)
            assert reopened.stats().corrupt_records == 0
            for stage, key, value in records:
                loaded = reopened.load(stage, key)
                assert loaded == value
                assert repr(loaded) == repr(value)  # tells -0.0 from 0.0

    def test_detector_output_roundtrip_across_instances(self, tmp_path):
        original = _sample_output()
        with MaterializedDetectionStore(tmp_path) as store:
            store.store("detector", ("vid#3", "det-a"), original)
        reopened = MaterializedDetectionStore(tmp_path)
        value = reopened.load("detector", ("vid#3", "det-a"))
        assert value == original  # bit-for-bit: dataclass equality on floats

    def test_every_stage_roundtrips(self, tmp_path):
        output = _sample_output()
        keys = {
            "detector": ("vid#0", "det-a"),
            "reference": ("vid#0", "lidar-ref"),
            "est_ap": ("vid#0", ("det-a",), "wbf()|iou=0.5|ref=lidar-ref"),
            "true_ap": ("vid#0", ("det-a",), "wbf()|iou=0.5"),
        }
        values = {
            "detector": output,
            "reference": output,
            "est_ap": 0.6251278459354782,
            "true_ap": 0.1,
        }
        with MaterializedDetectionStore(tmp_path) as store:
            for stage in MATERIALIZED_STAGES:
                store.store(stage, keys[stage], values[stage])
        reopened = MaterializedDetectionStore(tmp_path)
        for stage in MATERIALIZED_STAGES:
            assert reopened.load(stage, keys[stage]) == values[stage]

    def test_tuple_keys_survive_json(self, tmp_path):
        """Ensemble keys (nested tuples) must decode back hash-equal."""
        key = ("vid#7", ("a", "b", "c"), "wbf(conf=0.1)")
        with MaterializedDetectionStore(tmp_path) as store:
            store.store("est_ap", key, 0.25)
        reopened = MaterializedDetectionStore(tmp_path)
        assert reopened.load("est_ap", key) == 0.25

    def test_duplicate_store_is_idempotent(self, tmp_path):
        with MaterializedDetectionStore(tmp_path) as store:
            store.store("true_ap", ("v#0", ("a",), "t"), 0.5)
            store.store("true_ap", ("v#0", ("a",), "t"), 0.5)
            assert store.stats().stores == 1
        segment = next(tmp_path.glob("segment-*.jsonl"))
        assert len(segment.read_text().splitlines()) == 1

    def test_unknown_stage_rejected(self, tmp_path):
        store = MaterializedDetectionStore(tmp_path)
        assert not store.accepts("bogus")
        with pytest.raises(ValueError):
            store.store("bogus", "k", 1.0)

    def test_fused_stage_rejected(self, tmp_path):
        """Fused boxes are recomputed from detector outputs, never stored."""
        store = MaterializedDetectionStore(tmp_path)
        assert "fused" not in MATERIALIZED_STAGES
        assert not store.accepts("fused")
        with pytest.raises(ValueError, match="not materializable"):
            store.store("fused", ("v#0", ("a",), "t"), _sample_output().detections)
        assert not list(tmp_path.glob("segment-*.jsonl"))


def _checksummed(stage, key, value) -> str:
    """A segment line whose checksum matches its payload."""
    payload = json.dumps([stage, key, value], separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:16] + "\t" + payload


def _change_value(line: str) -> str:
    sha, payload = line.split("\t")
    stage, key, _ = json.loads(payload)
    return sha + "\t" + json.dumps([stage, key, 0.9999], separators=(",", ":"))


def _flip_sha_char(line: str) -> str:
    return ("1" if line[0] == "0" else "0") + line[1:]


def _drop_tab(line: str) -> str:
    return line.replace("\t", "")


def _unknown_stage(line: str) -> str:
    _, key, value = json.loads(line.split("\t")[1])
    return _checksummed("bogus", key, value)


def _inverted_box(line: str) -> str:
    _, key, _ = json.loads(line.split("\t")[1])
    rows = [[10.0, 0.0, 5.0, 1.0, 0.5, "car", None, None]]  # x2 < x1
    return _checksummed("detector", key, [1.0, [0, None, rows]])


_TAMPERS = {
    "value-changed": _change_value,
    "sha-flipped": _flip_sha_char,
    "no-tab": _drop_tab,
    "unknown-stage": _unknown_stage,
    "inverted-box": _inverted_box,
}


class TestIntegrity:
    @pytest.mark.parametrize(
        ("tamper", "level"),
        [
            pytest.param(
                tamper, level, id=name if level == "off" else f"{name}-{level}"
            )
            for level in ("off", "metrics", "trace")
            for name, tamper in _TAMPERS.items()
        ],
    )
    def test_corrupt_record_skipped_and_counted(self, tmp_path, tamper, level):
        with MaterializedDetectionStore(tmp_path) as store:
            store.store("true_ap", ("v#0", ("a",), "t"), 0.5)
            store.store("true_ap", ("v#1", ("a",), "t"), 0.7)
        segment = next(tmp_path.glob("segment-*.jsonl"))
        lines = segment.read_text().splitlines()
        # Corrupt the first record; its neighbour must still load.
        segment.write_text(tamper(lines[0]) + "\n" + lines[1] + "\n")
        obs = Observability(level=level)
        reopened = MaterializedDetectionStore(tmp_path, obs=obs)
        assert reopened.load("true_ap", ("v#0", ("a",), "t")) is None
        assert reopened.load("true_ap", ("v#1", ("a",), "t")) == 0.7
        assert reopened.stats().corrupt_records == 1
        assert len(reopened) == 1
        if level == "off":
            assert obs.events is None
        else:
            (event,) = obs.events.events()
            assert event["type"] == "matstore-corrupt-record"
            assert event["segment"] == segment.name

    def test_torn_write_skipped(self, tmp_path):
        with MaterializedDetectionStore(tmp_path) as store:
            store.store("true_ap", ("v#0", ("a",), "t"), 0.5)
        segment = next(tmp_path.glob("segment-*.jsonl"))
        intact = segment.read_text()
        segment.write_text(intact + '{"stage": "true_ap", "ke')
        reopened = MaterializedDetectionStore(tmp_path)
        assert reopened.load("true_ap", ("v#0", ("a",), "t")) == 0.5
        assert reopened.stats().corrupt_records == 1

    def test_blank_lines_ignored(self, tmp_path):
        with MaterializedDetectionStore(tmp_path) as store:
            store.store("true_ap", ("v#0", ("a",), "t"), 0.5)
        segment = next(tmp_path.glob("segment-*.jsonl"))
        segment.write_text(segment.read_text() + "\n\n")
        reopened = MaterializedDetectionStore(tmp_path)
        assert reopened.stats().corrupt_records == 0
        assert len(reopened) == 1


class TestVersioning:
    def test_manifest_written_on_create(self, tmp_path):
        MaterializedDetectionStore(tmp_path)
        manifest = json.loads((tmp_path / "MANIFEST.json").read_text())
        assert manifest["format_version"] == FORMAT_VERSION

    @pytest.mark.parametrize(
        "version", [FORMAT_VERSION + 1, FORMAT_VERSION - 1], ids=["newer", "older"]
    )
    def test_future_version_refused(self, tmp_path, version):
        (tmp_path / "MANIFEST.json").write_text(
            json.dumps({"format_version": version})
        )
        with pytest.raises(MaterializationError, match="format_version"):
            MaterializedDetectionStore(tmp_path)

    def test_version_2_directory_refused(self, tmp_path):
        """A v2 store holds fused records; it is refused, not half-read."""
        (tmp_path / "MANIFEST.json").write_text('{"format_version": 2}\n')
        segment = tmp_path / "segment-00000.jsonl"
        segment.write_text(
            _checksummed("fused", ["v#0", ["a"], "t"], [0, None, []]) + "\n"
        )
        with pytest.raises(MaterializationError) as refused:
            MaterializedDetectionStore(tmp_path)
        message = str(refused.value)
        assert "has format_version 2" in message
        assert f"reads only format_version {FORMAT_VERSION}" in message
        assert FORMAT_VERSION == 3

    def test_garbage_manifest_refused(self, tmp_path):
        (tmp_path / "MANIFEST.json").write_text("not json at all")
        with pytest.raises(MaterializationError):
            MaterializedDetectionStore(tmp_path)

    def test_each_session_gets_its_own_segment(self, tmp_path):
        with MaterializedDetectionStore(tmp_path) as store:
            store.store("true_ap", ("v#0", ("a",), "t"), 0.5)
        with MaterializedDetectionStore(tmp_path) as store:
            store.store("true_ap", ("v#1", ("a",), "t"), 0.6)
        assert len(sorted(tmp_path.glob("segment-*.jsonl"))) == 2
        reopened = MaterializedDetectionStore(tmp_path)
        assert len(reopened) == 2

    def test_read_only_session_creates_no_segment(self, tmp_path):
        with MaterializedDetectionStore(tmp_path) as store:
            store.load("true_ap", ("absent",))
        assert not list(tmp_path.glob("segment-*.jsonl"))


class TestStats:
    def test_hit_miss_counters(self, tmp_path):
        store = MaterializedDetectionStore(tmp_path)
        store.store("true_ap", ("v#0", ("a",), "t"), 0.5)
        assert store.load("true_ap", ("v#0", ("a",), "t")) == 0.5
        assert store.load("true_ap", ("absent",)) is None
        stats = store.stats()
        assert stats.hits == 1
        assert stats.misses == 1
        assert stats.stores == 1
        assert stats.hit_rate == pytest.approx(0.5)
        assert json.loads(json.dumps(stats.as_dict()))["records"] == 1


# ---- concurrent and killed writers --------------------------------------


def _large_frame(tag: str) -> FrameDetections:
    """Detections whose record is well over the 8 KiB I/O buffer."""
    return FrameDetections(
        frame_index=0,
        detections=tuple(
            make_detection(x1=i / 4, conf=0.5, source=f"{tag}-{i}")
            for i in range(200)
        ),
        source=tag,
    )


def _large_output(tag: str) -> DetectorOutput:
    return DetectorOutput(detections=_large_frame(tag), inference_time_ms=8.5)


def _concurrent_writer(root: str, writer: int, barrier) -> None:
    store = MaterializedDetectionStore(root)
    barrier.wait(timeout=_CHILD_TIMEOUT_S)  # every writer opens first
    with store:
        for i in range(4):
            tag = f"w{writer}-{i}"
            store.store("detector", (tag, "a"), _large_output(tag))


def _reuse_engine(**kwargs) -> tuple[QueryEngine, str]:
    setup = standard_setup("nusc-clear", trial=0, scale=0.02, m=3, max_frames=40)
    engine = QueryEngine(**kwargs)
    engine.register_video("video", setup.frames)
    for detector in setup.detectors:
        engine.register_detector(detector)
    engine.register_reference(setup.reference)
    models = ", ".join(detector.name for detector in setup.detectors)
    text = (
        "SELECT frameID FROM (PROCESS video PRODUCE frameID, Detections "
        f"USING MES({models}; {setup.reference.name}) WITH gamma=2) "
        "WHERE COUNT('car') >= 1"
    )
    return engine, text


class _AckingStore(MaterializedDetectionStore):
    """Reports every record whose :meth:`store` has returned."""

    def __init__(self, root: str, conn) -> None:
        super().__init__(root)
        self._conn = conn

    def store(self, stage, key, value) -> None:
        super().store(stage, key, value)
        self._conn.send((stage, key, value))


def _acking_writer(root: str, conn) -> None:
    with _AckingStore(root, conn) as tier:
        store = EvaluationStore()
        store.attach_tier(tier)
        engine, text = _reuse_engine(store=store)
        engine.execute(text)


class TestConcurrentWriters:
    def test_sessions_opened_together_write_separate_segments(self, tmp_path):
        first = MaterializedDetectionStore(tmp_path)
        second = MaterializedDetectionStore(tmp_path)
        with first, second:
            first.store("true_ap", ("v#0", ("a",), "t"), 0.5)
            second.store("true_ap", ("v#1", ("a",), "t"), 0.6)
        assert len(sorted(tmp_path.glob("segment-*.jsonl"))) == 2
        reopened = MaterializedDetectionStore(tmp_path)
        assert len(reopened) == 2
        assert reopened.stats().corrupt_records == 0

    def test_segment_gap_never_reused(self, tmp_path):
        with MaterializedDetectionStore(tmp_path) as store:
            store.store("true_ap", ("v#0", ("a",), "t"), 0.5)
        (tmp_path / "segment-00000.jsonl").rename(tmp_path / "segment-00001.jsonl")
        before = (tmp_path / "segment-00001.jsonl").read_bytes()
        with MaterializedDetectionStore(tmp_path) as store:
            store.store("true_ap", ("v#1", ("a",), "t"), 0.6)
        assert (tmp_path / "segment-00001.jsonl").read_bytes() == before
        assert len(MaterializedDetectionStore(tmp_path)) == 2

    def test_writer_processes_lose_no_record(self, tmp_path):
        ctx = multiprocessing.get_context("spawn")
        barrier = ctx.Barrier(3)
        writers = [
            ctx.Process(target=_concurrent_writer, args=(str(tmp_path), w, barrier))
            for w in range(3)
        ]
        for writer in writers:
            writer.start()
        for writer in writers:
            writer.join(timeout=_CHILD_TIMEOUT_S)
        for writer in writers:
            if writer.is_alive():
                writer.kill()
                writer.join(timeout=_CHILD_TIMEOUT_S)
        assert [writer.exitcode for writer in writers] == [0, 0, 0]
        reopened = MaterializedDetectionStore(tmp_path)
        assert reopened.stats().corrupt_records == 0
        assert len(sorted(tmp_path.glob("segment-*.jsonl"))) == 3
        for w in range(3):
            for i in range(4):
                tag = f"w{w}-{i}"
                assert reopened.load("detector", (tag, "a")) == _large_output(tag)

    def test_killed_writer_keeps_every_acknowledged_record(self, tmp_path):
        ctx = multiprocessing.get_context("spawn")
        receiver, sender = ctx.Pipe(duplex=False)
        child = ctx.Process(target=_acking_writer, args=(str(tmp_path), sender))
        child.start()
        sender.close()  # the child holds the only write end now
        acked = []
        try:
            while len(acked) < 100 and receiver.poll(_CHILD_TIMEOUT_S):
                acked.append(receiver.recv())
        finally:
            child.kill()  # SIGKILL, mid-stream
            child.join(timeout=_CHILD_TIMEOUT_S)
        while receiver.poll(1):  # acks already sent before the kill
            try:
                acked.append(receiver.recv())
            except (EOFError, OSError):  # OSError: an ack cut off by the kill
                break
        assert not child.is_alive()
        assert len(acked) >= 100
        reopened = MaterializedDetectionStore(tmp_path)
        assert reopened.stats().corrupt_records <= 1  # at most a torn tail
        for stage, key, value in acked:
            assert reopened.load(stage, key) == value
        cold, text = _reuse_engine()
        warm, _ = _reuse_engine(materialize_dir=tmp_path)
        with warm:
            assert warm.execute(text).rows == cold.execute(text).rows
            acked_keys = {(stage, key) for stage, key, _ in acked}
            assert warm.matstore.stats().hits >= len(acked_keys)
