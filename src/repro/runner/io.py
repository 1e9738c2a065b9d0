"""Result serialization: JSON and CSV export of runs and comparisons.

Experiments are cheap to re-run but expensive to re-compare; these helpers
persist :class:`~repro.core.selection.SelectionResult` traces and harness
outcomes in plain formats any analysis stack can read.
"""

from __future__ import annotations

import csv
import json
from collections.abc import Mapping
from pathlib import Path

from repro.core.selection import FrameRecord, SelectionResult
from repro.runner.harness import TrialOutcome

__all__ = [
    "result_to_dict",
    "save_result_json",
    "load_result_json",
    "save_records_csv",
    "load_records_csv",
    "outcomes_to_rows",
    "save_outcomes_csv",
    "load_outcomes_csv",
]

_PathLike = str | Path


def result_to_dict(result: SelectionResult) -> dict:
    """A JSON-serializable view of a run."""
    return {
        "algorithm": result.algorithm,
        "budget_ms": result.budget_ms,
        "frames_processed": result.frames_processed,
        "s_sum": result.s_sum,
        "s_sum_estimated": result.s_sum_estimated,
        "mean_true_ap": result.mean_true_ap,
        "mean_normalized_cost": result.mean_normalized_cost,
        "total_charged_ms": result.total_charged_ms,
        "records": [
            {
                "iteration": r.iteration,
                "frame_index": r.frame_index,
                "selected": list(r.selected),
                "est_score": r.est_score,
                "est_ap": r.est_ap,
                "true_score": r.true_score,
                "true_ap": r.true_ap,
                "cost_ms": r.cost_ms,
                "normalized_cost": r.normalized_cost,
                "charged_ms": r.charged_ms,
                "realized": list(r.realized) if r.realized is not None else None,
            }
            for r in result.records
        ],
    }


def save_result_json(result: SelectionResult, path: _PathLike) -> None:
    """Write a run to a JSON file."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result_to_dict(result), handle, indent=2, sort_keys=True)


def load_result_json(path: _PathLike) -> SelectionResult:
    """Load a run previously written by :func:`save_result_json`."""
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    records = [
        FrameRecord(
            iteration=r["iteration"],
            frame_index=r["frame_index"],
            selected=tuple(r["selected"]),
            est_score=r["est_score"],
            est_ap=r["est_ap"],
            true_score=r["true_score"],
            true_ap=r["true_ap"],
            cost_ms=r["cost_ms"],
            normalized_cost=r["normalized_cost"],
            charged_ms=r["charged_ms"],
            realized=(
                tuple(r["realized"]) if r.get("realized") is not None else None
            ),
        )
        for r in payload["records"]
    ]
    return SelectionResult(
        algorithm=payload["algorithm"],
        records=records,
        budget_ms=payload["budget_ms"],
    )


_RECORD_COLUMNS = (
    "iteration",
    "frame_index",
    "selected",
    "est_score",
    "est_ap",
    "true_score",
    "true_ap",
    "cost_ms",
    "normalized_cost",
    "charged_ms",
    "realized",
    "degraded",
)


def save_records_csv(result: SelectionResult, path: _PathLike) -> None:
    """Write per-frame records to CSV (ensembles joined with '+').

    The ``realized`` column is empty when the record's ``realized`` field
    is ``None`` (fault-free frame), so :func:`load_records_csv` recovers
    the exact field — not the ``realized_key`` fallback to ``selected``.
    """
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_RECORD_COLUMNS)
        for r in result.records:
            writer.writerow(
                [
                    r.iteration,
                    r.frame_index,
                    "+".join(r.selected),
                    r.est_score,
                    r.est_ap,
                    r.true_score,
                    r.true_ap,
                    r.cost_ms,
                    r.normalized_cost,
                    r.charged_ms,
                    "" if r.realized is None else "+".join(r.realized),
                    r.degraded,
                ]
            )


def _parse_bool(text: str, column: str) -> bool:
    if text == "True":
        return True
    if text == "False":
        return False
    raise ValueError(f"column {column!r}: expected 'True'/'False', got {text!r}")


def load_records_csv(path: _PathLike) -> list[FrameRecord]:
    """Load per-frame records written by :func:`save_records_csv`.

    The inverse of :func:`save_records_csv`: for every record,
    ``load(save(x)) == x`` field for field, including ``realized is None``
    on fault-free frames.
    """
    records: list[FrameRecord] = []
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or tuple(reader.fieldnames) != _RECORD_COLUMNS:
            raise ValueError(
                f"unexpected records-CSV header {reader.fieldnames!r}; "
                f"expected {list(_RECORD_COLUMNS)}"
            )
        for row in reader:
            realized_cell = row["realized"]
            record = FrameRecord(
                iteration=int(row["iteration"]),
                frame_index=int(row["frame_index"]),
                selected=tuple(row["selected"].split("+")),
                est_score=float(row["est_score"]),
                est_ap=float(row["est_ap"]),
                true_score=float(row["true_score"]),
                true_ap=float(row["true_ap"]),
                cost_ms=float(row["cost_ms"]),
                normalized_cost=float(row["normalized_cost"]),
                charged_ms=float(row["charged_ms"]),
                realized=(
                    tuple(realized_cell.split("+")) if realized_cell else None
                ),
            )
            degraded = _parse_bool(row["degraded"], "degraded")
            if degraded != record.degraded:
                raise ValueError(
                    f"inconsistent row: degraded={degraded} but "
                    f"selected={record.selected} realized={record.realized}"
                )
            records.append(record)
    return records


def outcomes_to_rows(outcomes: Mapping[str, TrialOutcome]) -> list[dict]:
    """Flatten a harness comparison into per-(algorithm, trial) rows."""
    rows: list[dict] = []
    for name, outcome in outcomes.items():
        for trial, s_sum in enumerate(outcome.s_sum):
            rows.append(
                {
                    "algorithm": name,
                    "trial": trial,
                    "s_sum": s_sum,
                    "mean_ap": outcome.mean_ap[trial],
                    "mean_cost": outcome.mean_cost[trial],
                    "frames_processed": outcome.frames_processed[trial],
                }
            )
    return rows


_OUTCOME_COLUMNS = (
    "algorithm",
    "trial",
    "s_sum",
    "mean_ap",
    "mean_cost",
    "frames_processed",
)


def save_outcomes_csv(
    outcomes: Mapping[str, TrialOutcome], path: _PathLike
) -> None:
    """Write a harness comparison to CSV."""
    rows = outcomes_to_rows(outcomes)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=_OUTCOME_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)


def load_outcomes_csv(path: _PathLike) -> dict[str, TrialOutcome]:
    """Load a harness comparison written by :func:`save_outcomes_csv`.

    The inverse of :func:`save_outcomes_csv`:
    ``load(save(outcomes)) == outcomes`` as long as each algorithm's rows
    were written in trial order (which :func:`outcomes_to_rows`
    guarantees).

    Raises:
        ValueError: On an unexpected header or out-of-order trial numbers.
    """
    outcomes: dict[str, TrialOutcome] = {}
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or tuple(reader.fieldnames) != _OUTCOME_COLUMNS:
            raise ValueError(
                f"unexpected outcomes-CSV header {reader.fieldnames!r}; "
                f"expected {list(_OUTCOME_COLUMNS)}"
            )
        for row in reader:
            outcome = outcomes.setdefault(
                row["algorithm"], TrialOutcome(algorithm=row["algorithm"])
            )
            trial = int(row["trial"])
            if trial != len(outcome.s_sum):
                raise ValueError(
                    f"algorithm {row['algorithm']!r}: expected trial "
                    f"{len(outcome.s_sum)}, got {trial}"
                )
            outcome.s_sum.append(float(row["s_sum"]))
            outcome.mean_ap.append(float(row["mean_ap"]))
            outcome.mean_cost.append(float(row["mean_cost"]))
            outcome.frames_processed.append(int(row["frames_processed"]))
    return outcomes
