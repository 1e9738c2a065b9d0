"""Query planning: bind names in the AST to runtime objects.

The planner resolves the ``USING`` algorithm name against the selection-
algorithm registry (applying ``WITH`` parameters and rejecting any the
algorithm does not take), checks that referenced detectors / reference
models / videos are registered with the engine, and produces an
executable plan.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass

from repro.core.baselines import (
    BruteForce,
    ExploreFirst,
    MESA,
    Oracle,
    RandomSelection,
    SingleBest,
)
from repro.core.mes import MES
from repro.core.mes_b import MESB
from repro.core.selection import SelectionAlgorithm
from repro.core.sw_mes import DMES, SWMES
from repro.query.ast import Query

__all__ = ["PlanError", "QueryPlan", "build_plan", "algorithm_registry"]


class PlanError(ValueError):
    """Raised when a query references unknown names or invalid parameters."""


#: USING name -> (algorithm class, the WITH keys it accepts with their
#: converters).  ``budget`` is accepted by every algorithm and handled by
#: :func:`build_plan`; defaults live only in the constructors.
_ALGORITHMS: dict[
    str,
    tuple[
        Callable[..., SelectionAlgorithm],
        Mapping[str, Callable[[float], object]],
    ],
] = {
    "mes": (MES, {"gamma": int}),
    "mes-b": (MESB, {"gamma": int}),
    "mes-a": (MESA, {"gamma": int}),
    "sw-mes": (SWMES, {"window": int, "gamma": int}),
    "d-mes": (DMES, {"discount": float, "gamma": int}),
    "opt": (Oracle, {}),
    "bf": (BruteForce, {}),
    "sgl": (SingleBest, {}),
    "rand": (RandomSelection, {"seed": int}),
    "ef": (ExploreFirst, {"delta": int}),
}


def algorithm_registry() -> list[str]:
    """Names accepted in the ``USING`` clause."""
    return sorted(_ALGORITHMS)


@dataclass(frozen=True)
class QueryPlan:
    """An executable plan: the bound algorithm plus validated names.

    Attributes:
        query: The source AST.
        algorithm: Fresh algorithm instance configured from WITH params.
        budget_ms: TCVI budget from ``WITH budget=...`` (None if absent).
    """

    query: Query
    algorithm: SelectionAlgorithm
    budget_ms: float | None


def build_plan(
    query: Query,
    known_videos: Sequence[str],
    known_detectors: Sequence[str],
    known_references: Sequence[str],
) -> QueryPlan:
    """Validate a query against the engine's catalog and bind the algorithm.

    Raises:
        PlanError: For unknown videos / detectors / references / algorithms,
            a detector listed twice, or invalid WITH parameters (a budget
            must be positive and finite).
    """
    process = query.process
    if process.video not in known_videos:
        raise PlanError(
            f"unknown video {process.video!r}; registered: {sorted(known_videos)}"
        )
    for index, model in enumerate(process.models):
        if model not in known_detectors:
            raise PlanError(
                f"unknown detector {model!r}; "
                f"registered: {sorted(known_detectors)}"
            )
        if model in process.models[:index]:
            raise PlanError(
                f"detector {model!r} is listed more than once in "
                f"USING {process.algorithm}(...)"
            )
    if process.reference is not None and process.reference not in known_references:
        raise PlanError(
            f"unknown reference model {process.reference!r}; "
            f"registered: {sorted(known_references)}"
        )

    algo_key = process.algorithm.lower()
    if algo_key not in _ALGORITHMS:
        raise PlanError(
            f"unknown algorithm {process.algorithm!r}; "
            f"known: {algorithm_registry()}"
        )
    make, converters = _ALGORITHMS[algo_key]
    params = dict(process.params)
    budget_ms = params.pop("budget", None)
    if algo_key == "mes-b" and budget_ms is None:
        raise PlanError("MES-B requires WITH budget=<ms>")
    if budget_ms is not None and not 0.0 < budget_ms < math.inf:
        raise PlanError(
            f"WITH budget must be a positive finite number, got {budget_ms}"
        )
    for key in params:
        if key not in converters:
            raise PlanError(
                f"{process.algorithm} does not take WITH {key}; "
                f"accepted: {sorted([*converters, 'budget'])}"
            )
    try:
        algorithm = make(
            **{key: converters[key](value) for key, value in params.items()}
        )
    except (ValueError, TypeError) as exc:
        raise PlanError(f"invalid parameters for {process.algorithm}: {exc}") from exc
    return QueryPlan(query=query, algorithm=algorithm, budget_ms=budget_ms)
