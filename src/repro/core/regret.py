"""Empirical regret against the per-frame oracle (Section 4, Eq. 17).

Regret measures the score lost by not selecting the optimal ensemble at
every iteration.  The analysis section bounds it at ``O(|M| log |V|)`` for
MES; the tests in ``tests/test_regret.py`` verify sub-linearity
empirically.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.environment import DetectionEnvironment
from repro.core.selection import SelectionResult
from repro.simulation.video import Frame

__all__ = ["oracle_scores", "empirical_regret", "regret_curve"]


def oracle_scores(
    env: DetectionEnvironment, frames: Sequence[Frame]
) -> list[float]:
    """``r_{S*_v | v}`` — best true score per frame, by uncharged peek."""
    return [
        env.peek_best(frame, env.all_ensembles).true_score for frame in frames
    ]


def _per_record_regret(
    result: SelectionResult, oracle: Sequence[float]
) -> list[float]:
    """Each record's regret against the oracle score of its own frame.

    A record's frame is ``record.iteration - 1`` in the sequence the run
    was given.  Abandoned frames leave no record, so after the first one
    a record's position in the list is no longer its frame's.
    """
    if result.records and len(oracle) < result.records[-1].iteration:
        raise ValueError(
            f"oracle has {len(oracle)} scores but the run reached frame "
            f"{result.records[-1].iteration}"
        )
    return [
        oracle[record.iteration - 1] - record.true_score
        for record in result.records
    ]


def empirical_regret(
    result: SelectionResult, oracle: Sequence[float]
) -> float:
    """Total regret of a run against pre-computed oracle scores.

    Args:
        result: The algorithm's run.
        oracle: Per-frame oracle scores, aligned with the frame sequence
            the algorithm was given.  Each record is scored against its
            own frame's oracle (``record.iteration - 1``), so frames the
            run abandoned are skipped, and only the prefix the run reached
            is used, so budgeted runs work unchanged.

    Raises:
        ValueError: If the oracle sequence ends before the run's last
            frame.
    """
    return sum(_per_record_regret(result, oracle))


def regret_curve(
    result: SelectionResult, oracle: Sequence[float]
) -> list[float]:
    """Cumulative regret after each record (for growth-rate checks)."""
    curve: list[float] = []
    total = 0.0
    for regret in _per_record_regret(result, oracle):
        total += regret
        curve.append(total)
    return curve
