"""Typed AST for the video query language.

The language covers the paper's motivating query shape: a ``SELECT`` over
the rows produced by a ``PROCESS ... PRODUCE ... USING algo(models; REF)``
clause, filtered by a ``WHERE`` expression over per-frame detection
aggregates (``COUNT`` / ``EXISTS``) and the frame id.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "CountExpr",
    "ExistsExpr",
    "FieldRef",
    "Comparison",
    "LogicalExpr",
    "ProcessClause",
    "Query",
    "Expr",
    "COMPARE_OPS",
]

#: Comparison operators accepted by the grammar.
COMPARE_OPS = ("=", "!=", "<", "<=", ">", ">=")


@dataclass(frozen=True)
class CountExpr:
    """``COUNT('label')`` / ``COUNT(*)`` with an optional confidence floor.

    Attributes:
        label: Class to count, or None for all detections.
        min_confidence: Only detections at or above this confidence count.
    """

    label: str | None = None
    min_confidence: float = 0.0


@dataclass(frozen=True)
class ExistsExpr:
    """``EXISTS('label')`` — true if any matching detection is present."""

    label: str | None = None
    min_confidence: float = 0.0


@dataclass(frozen=True)
class FieldRef:
    """A reference to a produced row field (e.g. ``frameID``)."""

    name: str


@dataclass(frozen=True)
class Comparison:
    """``left op value`` where left is a count or field reference."""

    left: CountExpr | FieldRef
    op: str
    value: float

    def __post_init__(self) -> None:
        if self.op not in COMPARE_OPS:
            raise ValueError(f"unknown comparison operator {self.op!r}")


@dataclass(frozen=True)
class LogicalExpr:
    """``AND`` / ``OR`` / ``NOT`` composition of expressions."""

    op: str
    operands: tuple["Expr", ...]

    def __post_init__(self) -> None:
        if self.op not in ("and", "or", "not"):
            raise ValueError(f"unknown logical operator {self.op!r}")
        if self.op == "not" and len(self.operands) != 1:
            raise ValueError("NOT takes exactly one operand")
        if self.op in ("and", "or") and len(self.operands) < 2:
            raise ValueError(f"{self.op.upper()} takes at least two operands")


Expr = Comparison | ExistsExpr | LogicalExpr


@dataclass(frozen=True)
class ProcessClause:
    """``PROCESS video PRODUCE cols USING algo(models; ref) [WITH k=v, ...]``.

    Attributes:
        video: Name of the registered input video.
        produce: Produced column names (``frameID``, ``Detections``, ...).
        algorithm: Selection-algorithm name (``MES``, ``SW-MES``, ...).
        models: Detector names passed to the algorithm.
        reference: Reference-model name (after the ``;``), if any.
        params: ``WITH`` parameters, e.g. ``gamma=5`` or ``budget=2000``.
    """

    video: str
    produce: tuple[str, ...]
    algorithm: str
    models: tuple[str, ...]
    reference: str | None = None
    params: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.produce:
            raise ValueError("PRODUCE list must be non-empty")
        if not self.models:
            raise ValueError("the algorithm needs at least one detector")


@dataclass(frozen=True)
class Query:
    """A full parsed query.

    Attributes:
        select: Selected column names.
        process: The PROCESS clause.
        where: Optional row predicate.
        min_duration: Temporal qualifier (``FOR AT LEAST n FRAMES``): only
            frames inside maximal consecutive runs of at least this many
            matching frames survive.  1 (default) disables the qualifier.
        explain: True when the query was prefixed with ``EXPLAIN`` — the
            caller should describe the plan instead of executing it.
    """

    select: tuple[str, ...]
    process: ProcessClause
    where: Expr | None = None
    min_duration: int = 1
    explain: bool = False

    def __post_init__(self) -> None:
        if not self.select:
            raise ValueError("SELECT list must be non-empty")
        if self.min_duration < 1:
            raise ValueError(
                f"FOR AT LEAST needs at least 1 frame, got {self.min_duration}"
            )
        produced = {name.lower() for name in self.process.produce}
        for column in self.select:
            if column.lower() not in produced:
                raise ValueError(
                    f"SELECT column {column!r} is not produced by the "
                    f"PROCESS clause (produced: {list(self.process.produce)})"
                )
