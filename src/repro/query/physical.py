"""The physical plan: the logical chain bound to the engine.

:class:`PhysicalPlan` pairs a :class:`~repro.query.logical.LogicalPlan`
with the registered frames and a
:class:`~repro.core.environment.DetectionEnvironment`.  Its
:meth:`~PhysicalPlan.execute` slices the scanned frame prefix, runs
the bound selection algorithm's frame loop
(:meth:`~repro.core.selection.SelectionAlgorithm.run`; fusion and
scoring run inside the environment, per evaluated ensemble), then
applies the WHERE predicate and the ``FOR AT LEAST n FRAMES``
qualifier (:func:`temporal_filter`).

Execution is deterministic: running the physical plan produces
bit-identical rows to the straight-line v1 executor (rewrites only
remove work whose results the filter provably discards).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.environment import DetectionEnvironment, EvaluationBatch
from repro.core.selection import FrameRecord, SelectionResult
from repro.detection.types import FrameDetections
from repro.query.ast import Query
from repro.query.logical import LogicalPlan, format_expr
from repro.query.predicates import evaluate_expr
from repro.simulation.video import Frame

__all__ = [
    "PRODUCIBLE_COLUMNS",
    "Row",
    "QueryResult",
    "temporal_filter",
    "PhysicalPlan",
]

#: Columns a PROCESS clause may produce, lower-cased.
PRODUCIBLE_COLUMNS: tuple[str, ...] = (
    "frameid",
    "detections",
    "score",
    "ensemble",
)


@dataclass(frozen=True)
class Row:
    """One produced row (one processed frame)."""

    frame_id: int
    detections: FrameDetections
    score: float
    ensemble: tuple[str, ...]

    def value(self, column: str) -> object:
        """Column accessor by (case-insensitive) name."""
        key = column.lower()
        if key == "frameid":
            return self.frame_id
        if key == "detections":
            return self.detections
        if key == "score":
            return self.score
        if key == "ensemble":
            return self.ensemble
        raise KeyError(
            f"unknown column {column!r}; known: {PRODUCIBLE_COLUMNS}"
        )


@dataclass
class QueryResult:
    """Execution output: selected rows plus run statistics."""

    rows: list[Row]
    selection: SelectionResult
    query: Query

    def __len__(self) -> int:
        return len(self.rows)

    def column(self, name: str) -> list[object]:
        """All values of one selected column."""
        return [row.value(name) for row in self.rows]

    def frame_ids(self) -> list[int]:
        return [row.frame_id for row in self.rows]


def temporal_filter(rows: list[Row], min_duration: int) -> list[Row]:
    """Keep only rows inside consecutive runs of ``min_duration`` frames.

    Implements ``FOR AT LEAST n FRAMES``: an event counts only if the
    predicate held on ``n`` or more consecutive frames.  ``1`` is the
    identity.
    """
    if min_duration <= 1:
        return rows
    kept: list[Row] = []
    run: list[Row] = []
    for row in rows:
        if run and row.frame_id == run[-1].frame_id + 1:
            run.append(row)
        else:
            if len(run) >= min_duration:
                kept.extend(run)
            run = [row]
    if len(run) >= min_duration:
        kept.extend(run)
    return kept


@dataclass(frozen=True)
class PhysicalPlan:
    """A logical plan bound to its video's frames and an environment.

    Physically, Detect subsumes the logical Fuse and Score operators:
    the environment fuses and scores each evaluated ensemble inline
    (without a reference model when Score was pruned).  Project is
    the identity: rows keep every field, and the selected columns are
    the contract of which ones :meth:`QueryResult.column` will be asked
    for.
    """

    logical: LogicalPlan
    frames: tuple[Frame, ...]
    env: DetectionEnvironment

    def execute(self) -> QueryResult:
        """Run scan -> detect -> WHERE -> ``FOR AT LEAST``.

        A frame observer captures the selected ensemble's fused
        detections as each frame is processed, so rows materialize
        during the selection run without a second frame loop.
        """
        logical = self.logical
        query = logical.query
        frames = self.frames[: logical.limit]
        detections_by_index: dict[int, FrameDetections] = {}

        def capture_detections(
            frame: Frame, batch: EvaluationBatch, record: FrameRecord
        ) -> None:
            evaluation = batch.serving(record.selected)
            detections_by_index[record.frame_index] = evaluation.detections

        selection = logical.plan.algorithm.run(
            self.env,
            frames,
            budget_ms=logical.plan.budget_ms,
            observers=[capture_detections],
        )
        rows = [
            Row(
                frame_id=record.frame_index,
                detections=detections_by_index[record.frame_index],
                score=record.est_score,
                ensemble=record.selected,
            )
            for record in selection.records
        ]
        if query.where is not None:
            rows = [
                row
                for row in rows
                if evaluate_expr(
                    query.where,
                    row.detections,
                    {"frameid": float(row.frame_id), "score": row.score},
                )
            ]
        rows = temporal_filter(rows, query.min_duration)
        return QueryResult(rows=rows, selection=selection, query=query)

    def describe_lines(self) -> list[str]:
        """EXPLAIN's physical-plan lines, one per step of :meth:`execute`."""
        query = self.logical.query
        where = "true" if query.where is None else format_expr(query.where)
        scoring = "estimated+true" if self.env.score_estimates else "true-only"
        return [
            f"FrameScanExec(video={query.process.video!r}, "
            f"frames={len(self.frames[: self.logical.limit])} "
            f"of {len(self.frames)})",
            f"DetectExec(algorithm={self.logical.plan.algorithm.name}, "
            f"backend={type(self.env.backend).__name__}, scoring={scoring})",
            f"FilterExec(predicate={where})",
            f"TemporalFilterExec(min_duration={query.min_duration})",
            f"ProjectExec(columns=[{', '.join(query.select)}])",
        ]
