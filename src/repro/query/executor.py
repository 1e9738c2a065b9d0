"""Query execution: catalog-bound planning plus the operator pipeline.

:class:`QueryEngine` is the user-facing entry point.  Videos, detectors
and reference models are registered in a :class:`~repro.query.catalog.
Catalog`; :meth:`QueryEngine.execute` parses a query string, binds it
(:mod:`repro.query.planner`), lowers it to a rewritten logical plan
(:mod:`repro.query.logical`), builds per-operator physical executors
(:mod:`repro.query.physical`) and pulls the result through them.

All queries of one engine share one
:class:`~repro.engine.store.EvaluationStore`: because store keys carry
context tags (detector, fusion, reference, IoU), overlapping queries —
even with different algorithms or references — reuse each other's
detector inferences, fusions and AP computations with bit-identical
results.  Passing ``materialize_dir`` additionally attaches a
:class:`~repro.query.matstore.MaterializedDetectionStore`, extending
that reuse across processes.
"""

from __future__ import annotations

from collections.abc import Sequence
from pathlib import Path

from repro.core.environment import DetectionEnvironment, EvaluationStore
from repro.core.scoring import ScoringFunction, WeightedLogScore
from repro.engine.backends import ExecutionBackend
from repro.ensembling.base import EnsembleMethod
from repro.ensembling.wbf import WeightedBoxesFusion
from repro.obs import NULL_OBS, Observability
from repro.query.catalog import Catalog
from repro.query.logical import LogicalPlan, build_logical_plan
from repro.query.matstore import MaterializedDetectionStore
from repro.query.parser import parse_query
from repro.query.physical import (
    PRODUCIBLE_COLUMNS,
    DetectExec,
    FilterExec,
    FrameScanExec,
    PhysicalPlan,
    ProjectExec,
    QueryResult,
    Row,
    TemporalFilterExec,
)
from repro.query.planner import PlanError, QueryPlan, build_plan
from repro.simulation.video import Frame, Video

__all__ = ["Row", "QueryResult", "QueryEngine"]


class QueryEngine:
    """Catalog + planner + operator executor for the video query language.

    Args:
        scoring: Scoring function used by selection algorithms.
        fusion: Fusion method (WBF by default).
        backend: Execution backend shared by all queries (serial by
            default); parallel backends change wall clock only, never
            results.
        store: Optional externally owned :class:`EvaluationStore`; by
            default the engine creates one and shares it across every
            query it executes (context-tagged keys make that safe).
        obs: Observability facade threaded into every query's
            environment (spans, metrics and events for the selection
            run).
        catalog: Optional externally owned :class:`Catalog`.
        materialize_dir: Directory for the persistent materialized
            detection store; when given, every deterministic stage value
            is written through to disk and later queries (in any
            process) reuse it instead of re-running inference.
    """

    def __init__(
        self,
        scoring: ScoringFunction | None = None,
        fusion: EnsembleMethod | None = None,
        backend: ExecutionBackend | None = None,
        store: EvaluationStore | None = None,
        obs: Observability = NULL_OBS,
        catalog: Catalog | None = None,
        materialize_dir: str | Path | None = None,
    ) -> None:
        self.scoring = scoring if scoring is not None else WeightedLogScore(0.5)
        self.fusion = fusion if fusion is not None else WeightedBoxesFusion()
        self.backend = backend
        self.obs = obs
        self.catalog = catalog if catalog is not None else Catalog()
        self.store = store if store is not None else EvaluationStore(obs=obs)
        self.matstore: MaterializedDetectionStore | None = None
        if materialize_dir is not None:
            self.matstore = MaterializedDetectionStore(
                materialize_dir, obs=obs
            )
            self.store.attach_tier(self.matstore)

    def close(self) -> None:
        """Flush and close the materialized store, if any (idempotent)."""
        if self.matstore is not None:
            self.matstore.close()

    def __enter__(self) -> QueryEngine:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ---- catalog --------------------------------------------------------

    def register_video(self, name: str, video: Video | Sequence[Frame]) -> None:
        """Register a video (or raw frame sequence) under ``name``."""
        self.catalog.register_video(name, video)

    def register_detector(self, detector: object) -> None:
        """Register a detector by its own ``.name``."""
        self.catalog.register_detector(detector)

    def register_reference(self, reference: object) -> None:
        """Register a reference model by its own ``.name``."""
        self.catalog.register_reference(reference)

    @property
    def videos(self) -> list[str]:
        return self.catalog.videos

    @property
    def detectors(self) -> list[str]:
        return self.catalog.detectors

    @property
    def references(self) -> list[str]:
        return self.catalog.references

    # ---- planning -------------------------------------------------------

    def plan(self, text: str) -> QueryPlan:
        """Parse and bind a query without executing it."""
        query = parse_query(text)
        for column in query.process.produce:
            if column.lower() not in PRODUCIBLE_COLUMNS:
                raise PlanError(
                    f"cannot produce column {column!r}; "
                    f"producible: {list(PRODUCIBLE_COLUMNS)}"
                )
        return build_plan(
            query,
            known_videos=self.videos,
            known_detectors=self.detectors,
            known_references=self.references,
        )

    def _lower(self, plan: QueryPlan) -> LogicalPlan:
        fusion_name = (
            getattr(self.fusion, "name", None) or type(self.fusion).__name__
        )
        return build_logical_plan(
            plan,
            total_frames=len(self.catalog.video(plan.query.process.video)),
            default_reference=self.catalog.default_reference(),
            fusion_name=str(fusion_name),
        )

    def logical_plan(self, text: str) -> LogicalPlan:
        """Parse, bind and lower a query to its rewritten logical plan."""
        return self._lower(self.plan(text))

    def physical_plan(
        self, logical: LogicalPlan, plan: QueryPlan | None = None
    ) -> PhysicalPlan:
        """Bind a logical plan to executors (building the environment).

        ``plan`` supplies the configured algorithm instance; omitted, a
        fresh one is bound from the logical plan's query.
        """
        if plan is None:
            query = logical.query
            plan = build_plan(
                query,
                known_videos=self.videos,
                known_detectors=self.detectors,
                known_references=self.references,
            )
        process = logical.query.process
        reference = (
            self.catalog.reference(logical.score.reference)
            if logical.score.enabled and logical.score.reference is not None
            else None
        )
        env = DetectionEnvironment(
            detectors=[self.catalog.detector(m) for m in process.models],
            reference=reference,
            scoring=self.scoring,
            fusion=self.fusion,
            cache=self.store,
            backend=self.backend,
            score_estimates=logical.score.enabled,
            obs=self.obs,
        )
        return PhysicalPlan(
            logical=logical,
            scan=FrameScanExec(
                video=process.video,
                frames=self.catalog.video(process.video),
                limit=logical.scan.limit,
            ),
            detect=DetectExec(
                algorithm=plan.algorithm,
                env=env,
                budget_ms=logical.detect.budget_ms,
            ),
            filter=FilterExec(predicate=logical.filter.predicate),
            temporal=TemporalFilterExec(
                min_duration=logical.filter.min_duration
            ),
            project=ProjectExec(columns=logical.project.columns),
        )

    def explain(self, text: str) -> str:
        """The EXPLAIN rendering: logical plan, rewrites, physical plan.

        Works on queries with or without the ``EXPLAIN`` prefix.
        """
        plan = self.plan(text)
        logical = self._lower(plan)
        physical = self.physical_plan(logical, plan=plan)
        lines = ["logical plan:"]
        lines.extend(f"  {line}" for line in logical.describe_lines())
        lines.append("rewrites:")
        if logical.rewrites:
            lines.extend(f"  - {rewrite}" for rewrite in logical.rewrites)
        else:
            lines.append("  (none)")
        lines.append("physical plan:")
        lines.extend(f"  {line}" for line in physical.describe_lines())
        return "\n".join(lines)

    # ---- execution ------------------------------------------------------

    def execute(self, text: str) -> QueryResult:
        """Run a query end to end.

        Raises:
            ParseError: On syntax errors.
            PlanError: On unknown names / bad parameters, or when the
                query carries an ``EXPLAIN`` prefix (use :meth:`explain`
                to describe the plan instead).
        """
        plan = self.plan(text)
        if plan.query.explain:
            raise PlanError(
                "EXPLAIN queries describe the plan instead of running; "
                "use QueryEngine.explain()"
            )
        logical = self._lower(plan)
        physical = self.physical_plan(logical, plan=plan)
        with self.obs.span("query", video=plan.query.process.video):
            return physical.execute()


def _apply_min_duration(rows: list[Row], min_duration: int) -> list[Row]:
    """Back-compat shim: the temporal qualifier now lives in
    :class:`~repro.query.physical.TemporalFilterExec`."""
    return TemporalFilterExec(min_duration=min_duration).execute(rows)
