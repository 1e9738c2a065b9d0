"""The persistent materialized detection store (cross-query reuse tier).

:class:`MaterializedDetectionStore` implements the engine's
:class:`~repro.engine.store.PersistentTier` protocol on disk: detector
outputs keyed by ``(video, frame, detector)``, reference outputs,
estimated and true AP are appended to versioned JSONL segments under a
directory, so overlapping queries (in this process or a later one) skip
already-paid inference entirely.  Fused boxes are not persisted: a query
reads them only for the frames it serves, and fusing those from the
persisted detector outputs costs less than decoding every evaluated
ensemble's boxes.

Reuse is bit-for-bit reproducible: values are serialized through JSON,
whose float round-trip is exact in Python (``repr`` emits the shortest
string that parses back to the same double), and every key carries the
in-memory store's *context tag* (fusion method + parameters, reference
model, IoU threshold), so entries produced under different configurations
never collide.

On-disk layout (format version 3)::

    <root>/MANIFEST.json       {"format_version": 3}
    <root>/segment-00000.jsonl one record per line: <sha> TAB <payload>

``payload`` is the compact JSON array ``[stage, key, value]`` and
``sha`` the first 16 hex digits of the SHA-256 of the payload bytes
exactly as written, so a read verifies a line before decoding it and
never re-encodes.  A ``DetectorOutput`` is ``[inference_time_ms,
frame_detections]``, its detections stored as rows: ``[frame_index,
source, rows]`` with one ``[x1, y1, x2, y2, confidence, label, source,
object_id]`` row per detection.  AP values are bare floats.

Decoding is a trust boundary: boxes and detections are rebuilt through
their validating constructors, and lines failing the checksum or decoding
are skipped and counted, never trusted.  A manifest with any other
``format_version`` (versions 1 and 2 included) refuses to load; there is
no migration.  Each session creates its own segment exclusively at its
first write, so no other session, in this process or another, appends
to it.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections.abc import Hashable
from dataclasses import dataclass
from pathlib import Path
from typing import Any, BinaryIO

from repro.detection.boxes import BBox
from repro.detection.types import Detection, FrameDetections
from repro.obs import NULL_OBS, Observability
from repro.simulation.detectors import DetectorOutput

__all__ = [
    "FORMAT_VERSION",
    "MATERIALIZED_STAGES",
    "MaterializationError",
    "MatStoreStats",
    "MaterializedDetectionStore",
]

#: On-disk format version; bumped on any incompatible record change.
FORMAT_VERSION = 3

#: Stages this tier persists.  The inference outputs and the APs a run
#: computed (every evaluated ensemble's estimate, and the true AP of
#: each evaluation whose true AP was read) are what a warm query would
#: otherwise recompute.  The ``fused`` stage is left out: a query reads fused boxes
#: only for the frames it serves, so a warm run fuses those from the
#: persisted detector outputs.  Persisted, they were 6.2 of the 10.6 MB
#: a cold 600-frame query wrote and over half of a warm open's CPU time.
MATERIALIZED_STAGES: tuple[str, ...] = (
    "detector",
    "reference",
    "est_ap",
    "true_ap",
)

_MANIFEST = "MANIFEST.json"
_SHA_HEX_LEN = 16


class MaterializationError(RuntimeError):
    """Raised when a store directory cannot be opened safely."""


@dataclass(frozen=True)
class MatStoreStats:
    """Counters snapshot of one :class:`MaterializedDetectionStore`.

    Attributes:
        records: Usable records currently indexed (loaded + stored).
        segments: Segment files present when the store was opened.
        corrupt_records: Lines skipped at load time (no checksum,
            checksum mismatch, bad JSON, unknown stage, or a payload that
            fails to decode or validate).
        hits / misses: :meth:`~MaterializedDetectionStore.load` outcomes.
        stores: New records appended by this session.
    """

    records: int
    segments: int
    corrupt_records: int
    hits: int
    misses: int
    stores: int

    @property
    def hit_rate(self) -> float:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "records": self.records,
            "segments": self.segments,
            "corrupt_records": self.corrupt_records,
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "hit_rate": self.hit_rate,
        }


# ---- payload codecs -----------------------------------------------------
#
# Values round-trip through plain JSON arrays.  Floats are exact (repr
# shortest round-trip); tuples decode back to tuples so reconstructed
# objects are equal — and hash-equal — to the originals.


def _encode_detections(value: FrameDetections) -> list[Any]:
    rows = [
        [d.box.x1, d.box.y1, d.box.x2, d.box.y2, d.confidence, d.label,
         d.source, d.object_id]
        for d in value.detections
    ]
    return [value.frame_index, value.source, rows]


def _decode_detections(payload: Any) -> FrameDetections:
    frame_index, source, rows = payload
    return FrameDetections(
        frame_index=int(frame_index),
        detections=tuple(
            Detection(
                BBox(float(x1), float(y1), float(x2), float(y2)),
                float(confidence),
                label,
                detector,
                object_id,
            )
            for x1, y1, x2, y2, confidence, label, detector, object_id in rows
        ),
        source=source,
    )


def _encode_value(stage: str, value: Any) -> Any:
    if stage in ("detector", "reference"):
        return [value.inference_time_ms, _encode_detections(value.detections)]
    # est_ap / true_ap are bare floats.
    return float(value)


def _decode_value(stage: str, payload: Any) -> Any:
    if stage in ("detector", "reference"):
        inference_time_ms, detections = payload
        return DetectorOutput(
            detections=_decode_detections(detections),
            inference_time_ms=float(inference_time_ms),
        )
    return float(payload)


def _key_scalar(part: Any) -> Any:
    if part is None or isinstance(part, (bool, int, float, str)):
        return part
    raise TypeError(f"unsupported key component {part!r}")


def _encode_key(key: Hashable) -> Any:
    """Keys are at most two levels deep — ``(frame, detector)`` or
    ``(frame, ensemble, tag)`` — which is all :func:`_decode_key` rebuilds."""
    if not isinstance(key, tuple):
        return _key_scalar(key)
    return [
        [_key_scalar(p) for p in part] if isinstance(part, tuple) else _key_scalar(part)
        for part in key
    ]


def _decode_key(obj: Any) -> Hashable:
    if isinstance(obj, list):
        return tuple(tuple(p) if isinstance(p, list) else p for p in obj)
    return obj


def _checksum(payload: bytes) -> bytes:
    return hashlib.sha256(payload).hexdigest()[:_SHA_HEX_LEN].encode("ascii")


class MaterializedDetectionStore:
    """Disk-backed cross-query detection store (a persistent store tier).

    Attach one to an :class:`~repro.engine.store.EvaluationStore` (or pass
    a directory to ``QueryEngine(materialize_dir=...)``) and every value
    of a :data:`MATERIALIZED_STAGES` stage computed by any query is
    written through to disk; later queries — in this process or another —
    promote those records instead of re-running inference.

    Thread-safe (one internal lock guards the index and the segment
    file).  The instance is a context manager; :meth:`close` flushes and
    closes the session segment.

    Args:
        root: Directory to hold the manifest and segments (created if
            missing).
        obs: Observability facade; hit/miss counters flow through it.

    Raises:
        MaterializationError: If the directory cannot be created (say,
            the path names a file) or its manifest declares an unknown
            format version (refusing, not guessing).
    """

    def __init__(
        self, root: str | Path, obs: Observability = NULL_OBS
    ) -> None:
        self._root = Path(root)
        try:
            self._root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise MaterializationError(
                f"cannot create materialized store {self._root}: {exc.strerror}"
            ) from exc
        self._obs = obs
        self._lock = threading.RLock()
        self._index: dict[tuple[str, Hashable], Any] = {}
        self._corrupt = 0
        self._hits = 0
        self._misses = 0
        self._stores = 0
        self._writer: BinaryIO | None = None
        self._check_manifest()
        segments = sorted(self._root.glob("segment-*.jsonl"))
        self._segments_loaded = len(segments)
        for segment in segments:
            self._load_segment(segment)

    # ---- open/close -----------------------------------------------------

    def _check_manifest(self) -> None:
        manifest_path = self._root / _MANIFEST
        if manifest_path.exists():
            try:
                manifest = json.loads(manifest_path.read_text("utf-8"))
                version = int(manifest["format_version"])
            except (ValueError, TypeError, KeyError) as exc:
                raise MaterializationError(
                    f"unreadable manifest {manifest_path}: {exc}"
                ) from exc
            if version != FORMAT_VERSION:
                raise MaterializationError(
                    f"materialized store {self._root} has format_version "
                    f"{version}; this build reads only format_version "
                    f"{FORMAT_VERSION} (delete the directory to rebuild it)"
                )
        else:
            manifest_path.write_text(
                json.dumps({"format_version": FORMAT_VERSION}, sort_keys=True)
                + "\n",
                "utf-8",
            )

    def _load_segment(self, path: Path) -> None:
        with path.open("rb") as segment:
            for line in segment:
                if line.isspace():
                    continue
                try:
                    sha, tab, payload = line.rstrip(b"\n").partition(b"\t")
                    if not tab:
                        raise ValueError("no checksum separator")
                    if sha != _checksum(payload):
                        raise ValueError("checksum mismatch")
                    stage, key, value = json.loads(payload)
                    if stage not in MATERIALIZED_STAGES:
                        raise ValueError(f"unknown stage {stage!r}")
                    full_key = (stage, _decode_key(key))
                    self._index[full_key] = _decode_value(stage, value)  # repro-lint: disable=RPR015 -- persistent disk-mirroring index: one entry per distinct record in the directory's segments, each segment loaded once at open
                except (ValueError, TypeError, KeyError) as exc:
                    # A torn write or bit rot: skip the line (the engine
                    # recomputes the value deterministically), never trust it.
                    self._corrupt += 1
                    self._obs.event(
                        "matstore-corrupt-record",
                        segment=path.name,
                        error=str(exc),
                    )

    def _create_segment(self) -> BinaryIO:
        """Create this session's segment exclusively, at the first free
        index from the count seen at open."""
        index = self._segments_loaded
        while True:
            try:
                return (self._root / f"segment-{index:05d}.jsonl").open("xb")
            except FileExistsError:
                index += 1

    def close(self) -> None:
        """Flush and close this session's segment (idempotent)."""
        with self._lock:
            if self._writer is not None:
                self._writer.close()
                self._writer = None

    def flush(self) -> None:
        with self._lock:
            if self._writer is not None:
                self._writer.flush()

    def __enter__(self) -> MaterializedDetectionStore:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ---- PersistentTier protocol ----------------------------------------

    def accepts(self, stage: str) -> bool:
        return stage in MATERIALIZED_STAGES

    def load(self, stage: str, key: Hashable) -> Any | None:
        with self._lock:
            value = self._index.get((stage, key))
            if value is None:
                self._misses += 1
            else:
                self._hits += 1
            if self._obs.metrics_on:
                name = (
                    "repro_matstore_hits_total"
                    if value is not None
                    else "repro_matstore_misses_total"
                )
                self._obs.count(
                    name,
                    description="Materialized-store lookups by outcome",
                    stage=stage,
                )
            return value

    def store(self, stage: str, key: Hashable, value: Any) -> None:
        if not self.accepts(stage):
            raise ValueError(f"stage {stage!r} is not materializable")
        with self._lock:
            full_key = (stage, key)
            if full_key in self._index:
                return
            # One encode; sort_keys is inert on an all-array payload but
            # keeps the bytes canonical by construction (RPR011).
            payload = json.dumps(
                [stage, _encode_key(key), _encode_value(stage, value)],
                separators=(",", ":"),
                sort_keys=True,
            ).encode("ascii")
            if self._writer is None:
                # Lazy: a read-only session never creates a segment.
                self._writer = self._create_segment()
            self._writer.write(_checksum(payload) + b"\t" + payload + b"\n")
            # Per record: a killed writer loses no acknowledged record.
            self._writer.flush()
            self._index[full_key] = value
            self._stores += 1

    # ---- introspection --------------------------------------------------

    @property
    def root(self) -> Path:
        return self._root

    def __len__(self) -> int:
        with self._lock:
            return len(self._index)

    def stats(self) -> MatStoreStats:
        with self._lock:
            return MatStoreStats(
                records=len(self._index),
                segments=self._segments_loaded,
                corrupt_records=self._corrupt,
                hits=self._hits,
                misses=self._misses,
                stores=self._stores,
            )

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"MaterializedDetectionStore(root={str(self._root)!r}, "
                f"records={len(self._index)}, corrupt={self._corrupt})"
            )
