"""Logical query plans: the operator chain and its rewrite rules.

A parsed-and-bound query lowers to a fixed operator chain::

    Scan -> Detect -> Fuse -> Score -> Filter -> Project

mirroring the classical relational stack: *Scan* reads the registered
video (optionally only a prefix), *Detect* runs the bound selection
algorithm over the detector pool, *Fuse* names the box-fusion method,
*Score* names the reference model that estimates per-frame AP, *Filter*
applies the ``WHERE`` predicate and temporal qualifier, and *Project*
fixes the output columns.  The chain never changes shape, so one flat
:class:`LogicalPlan` records what varies: the scan prefix, the fusion
method and the reference model (``None`` once Score is pruned).

Two rewrite rules run during lowering, each recorded on the plan for
``EXPLAIN``:

* **Predicate pushdown** — top-level ``frameID < k`` / ``frameID <= k``
  conjuncts bound the scan, so the selection algorithm never processes
  frames the filter is guaranteed to reject.  Only *prefix* bounds are
  pushed, and only for streaming (causal) algorithms: selection state
  evolves frame by frame, so skipping interior frames — or truncating
  the video an algorithm pre-scans (SGL) — would change its choices and
  break bit-identical equivalence with the unrewritten plan.
* **Projection pruning** — when no produced column or predicate ever
  reads ``score``, the algorithm never consults estimated scores
  (``needs_reference`` is False), and the query names no explicit REF,
  the Score operator is elided: the environment runs without a
  reference model, which is never inferred (or even required to be
  registered).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.query.ast import (
    Comparison,
    CountExpr,
    ExistsExpr,
    Expr,
    FieldRef,
    LogicalExpr,
    Query,
)
from repro.query.planner import PlanError, QueryPlan

__all__ = [
    "LogicalPlan",
    "build_logical_plan",
    "format_expr",
    "expr_references_field",
    "frame_prefix_bound",
]


# ---- expression helpers -------------------------------------------------


def format_expr(expr: Expr) -> str:
    """Render a WHERE expression back to query-language syntax."""
    if isinstance(expr, LogicalExpr):
        if expr.op == "not":
            return f"NOT {format_expr(expr.operands[0])}"
        joiner = f" {expr.op.upper()} "
        return "(" + joiner.join(format_expr(o) for o in expr.operands) + ")"
    if isinstance(expr, ExistsExpr):
        return f"EXISTS({_format_aggregate_args(expr.label, expr.min_confidence)})"
    if isinstance(expr, Comparison):
        if isinstance(expr.left, CountExpr):
            left = (
                "COUNT("
                + _format_aggregate_args(
                    expr.left.label, expr.left.min_confidence
                )
                + ")"
            )
        else:
            left = expr.left.name
        return f"{left} {expr.op} {expr.value:g}"
    raise TypeError(f"unsupported expression node {type(expr).__name__}")


def _format_aggregate_args(label: str | None, min_confidence: float) -> str:
    rendered = "*" if label is None else f"'{label}'"
    if min_confidence > 0.0:
        rendered += f", {min_confidence:g}"
    return rendered


def expr_references_field(expr: Expr, name: str) -> bool:
    """Whether the expression reads row field ``name`` (case-insensitive)."""
    if isinstance(expr, LogicalExpr):
        return any(expr_references_field(o, name) for o in expr.operands)
    if isinstance(expr, Comparison) and isinstance(expr.left, FieldRef):
        return expr.left.name.lower() == name.lower()
    return False


def _conjuncts(expr: Expr) -> list[Expr]:
    """Top-level AND conjuncts (the expression itself if not an AND)."""
    if isinstance(expr, LogicalExpr) and expr.op == "and":
        flat: list[Expr] = []
        for operand in expr.operands:
            flat.extend(_conjuncts(operand))
        return flat
    return [expr]


def frame_prefix_bound(expr: Expr) -> int | None:
    """The scan prefix length implied by top-level ``frameID`` upper bounds.

    ``frameID < k`` keeps ids ``0..ceil(k)-1`` (``ceil`` handles
    fractional bounds) and ``frameID <= k`` keeps ``0..floor(k)``, so the
    prefix lengths are ``ceil(k)`` and ``floor(k)+1`` respectively; the
    tightest conjunct wins.  Returns ``None`` when no top-level conjunct
    is such a bound — lower bounds, disjunctions and negations are never
    pushed (they do not describe a prefix).
    """
    bound: int | None = None
    for conjunct in _conjuncts(expr):
        if not (
            isinstance(conjunct, Comparison)
            and isinstance(conjunct.left, FieldRef)
            and conjunct.left.name.lower() == "frameid"
        ):
            continue
        if conjunct.op == "<":
            limit = math.ceil(conjunct.value)
        elif conjunct.op == "<=":
            limit = math.floor(conjunct.value) + 1
        else:
            continue
        limit = max(limit, 0)
        bound = limit if bound is None else min(bound, limit)
    return bound


# ---- the plan -----------------------------------------------------------


@dataclass(frozen=True)
class LogicalPlan:
    """A bound query lowered to the operator chain, after rewrites.

    Attributes:
        plan: The bound query: AST, algorithm instance and budget.
        total_frames: Length of the registered video.
        limit: Scan prefix set by predicate pushdown (``None``: every
            frame).
        fusion: Name of the fusion method.
        reference: The reference model that scores estimates, or
            ``None`` when projection pruning removed Score.
        rewrites: One human-readable line per applied rewrite.
    """

    plan: QueryPlan
    total_frames: int
    limit: int | None
    fusion: str
    reference: str | None
    rewrites: tuple[str, ...]

    @property
    def query(self) -> Query:
        return self.plan.query

    def describe_lines(self) -> list[str]:
        """One line per operator: Scan, Detect, Fuse, Score, Filter, Project."""
        query, budget_ms = self.query, self.plan.budget_ms
        process = query.process
        where = "true" if query.where is None else format_expr(query.where)
        if self.limit is None:
            span = f"all {self.total_frames} frames"
        else:
            span = f"first {self.limit} of {self.total_frames} frames"
        budget = "none" if budget_ms is None else f"{budget_ms:g}ms"
        if self.reference is None:
            score = "Score(skipped: projection pruning)"
        else:
            score = f"Score(reference={self.reference})"
        return [
            f"Scan(video={process.video!r}, {span})",
            f"Detect(algorithm={self.plan.algorithm.name}, "
            f"models=[{', '.join(process.models)}], budget={budget})",
            f"Fuse(method={self.fusion})",
            score,
            f"Filter(predicate={where}, "
            f"min_duration={query.min_duration})",
            f"Project(columns=[{', '.join(query.select)}])",
        ]


# ---- lowering -----------------------------------------------------------


def build_logical_plan(
    plan: QueryPlan,
    total_frames: int,
    default_reference: str | None,
    fusion_name: str,
) -> LogicalPlan:
    """Lower a bound :class:`~repro.query.planner.QueryPlan`.

    Applies predicate pushdown and projection pruning (see the module
    docstring for when each is sound) and resolves the reference model —
    the explicit ``; REF`` name, else ``default_reference``.

    Raises:
        PlanError: When scoring is required but no reference model is
            named or registered.
    """
    query = plan.query
    process = query.process
    rewrites: list[str] = []

    limit: int | None = None
    if query.where is not None and plan.algorithm.supports_streaming:
        limit = frame_prefix_bound(query.where)
        if limit is not None and limit < total_frames:
            rewrites.append(
                f"predicate pushdown: frameID bound limits the scan to the "
                f"first {limit} of {total_frames} frames"
            )
        else:
            limit = None  # no bound, or a vacuous one: scan every frame

    produced = {column.lower() for column in process.produce}
    score_read = "score" in produced or (
        query.where is not None
        and expr_references_field(query.where, "score")
    )
    reference: str | None
    if (
        not score_read
        and not plan.algorithm.needs_reference
        and process.reference is None
    ):
        reference = None
        rewrites.append(
            "projection pruning: no column or predicate reads score and "
            f"{plan.algorithm.name} ignores estimates; reference scoring "
            "elided"
        )
    else:
        reference = (
            process.reference
            if process.reference is not None
            else default_reference
        )
        if reference is None:
            raise PlanError(
                "query has no reference model and none is registered"
            )

    return LogicalPlan(
        plan=plan,
        total_frames=total_frames,
        limit=limit,
        fusion=fusion_name,
        reference=reference,
        rewrites=tuple(rewrites),
    )
