"""Exporters: Prometheus text exposition format, JSON, and JSONL.

The Prometheus output follows the text exposition format version 0.0.4:
``# HELP``/``# TYPE`` header lines per metric family, cumulative
``_bucket{le="..."}`` series plus ``_sum``/``_count`` for histograms.
Series are emitted in sorted order so the output is deterministic and
diff-able across runs.
"""

from __future__ import annotations

import json
from typing import IO, TYPE_CHECKING, Any

if TYPE_CHECKING:
    from .events import RunEventLog
    from .metrics import MetricsSnapshot
    from .tracer import Tracer

__all__ = [
    "metrics_to_json",
    "metrics_to_prometheus",
    "write_metrics",
    "write_trace_json",
    "write_events_jsonl",
]


def metrics_to_json(snapshot: MetricsSnapshot) -> str:
    """Serialize a snapshot as deterministic, indented JSON."""
    return json.dumps(snapshot.as_dict(), indent=2, sort_keys=True)


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_labels(labels: tuple[tuple[str, str], ...], extra: str = "") -> str:
    parts = [f'{k}="{_escape_label_value(v)}"' for k, v in labels]
    if extra:
        parts.append(extra)
    if not parts:
        return ""
    return "{" + ",".join(parts) + "}"


def _format_value(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return repr(value)


def metrics_to_prometheus(snapshot: MetricsSnapshot) -> str:
    """Serialize a snapshot in the Prometheus text exposition format."""
    lines: list[str] = []
    emitted_headers: set[str] = set()

    def header(name: str, metric_type: str) -> None:
        if name in emitted_headers:
            return
        emitted_headers.add(name)
        description = snapshot.descriptions.get(name)
        if description:
            lines.append(f"# HELP {name} {description}")
        lines.append(f"# TYPE {name} {metric_type}")

    for (name, labels) in sorted(snapshot.counters):
        header(name, "counter")
        value = snapshot.counters[(name, labels)]
        lines.append(f"{name}{_format_labels(labels)} {_format_value(value)}")

    for (name, labels) in sorted(snapshot.gauges):
        header(name, "gauge")
        value = snapshot.gauges[(name, labels)]
        lines.append(f"{name}{_format_labels(labels)} {_format_value(value)}")

    for (name, labels) in sorted(snapshot.histograms):
        header(name, "histogram")
        hist = snapshot.histograms[(name, labels)]
        cumulative = 0
        for bound, count in zip(
            hist.buckets, hist.counts[:-1], strict=True
        ):
            cumulative += count
            le = _format_labels(labels, f'le="{_format_value(bound)}"')
            lines.append(f"{name}_bucket{le} {cumulative}")
        inf = _format_labels(labels, 'le="+Inf"')
        lines.append(f"{name}_bucket{inf} {hist.count}")
        lines.append(
            f"{name}_sum{_format_labels(labels)} {_format_value(hist.total)}"
        )
        lines.append(f"{name}_count{_format_labels(labels)} {hist.count}")

    return "\n".join(lines) + "\n" if lines else ""


def write_metrics(path: str, snapshot: MetricsSnapshot) -> None:
    """Write a snapshot to ``path``; ``.prom``/``.txt`` selects the
    Prometheus text format, anything else gets JSON."""
    if path.endswith((".prom", ".txt")):
        text = metrics_to_prometheus(snapshot)
    else:
        text = metrics_to_json(snapshot)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def write_trace_json(path: str, tracer: Tracer) -> None:
    """Write finished spans (plus the drop counter) as one JSON document.

    The document is ``{"dropped": n, "spans": [...]}`` with sorted keys.
    It is streamed: the head first, then one span object per line, each
    encoded on its own by ``json.dumps`` (the C encoder), so neither the
    span dicts nor the whole text are ever held at once.
    """
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f'{{"dropped": {tracer.dropped}, "spans": [')
        separator = "\n"
        for span in tracer.finished():
            handle.write(separator)
            handle.write(json.dumps(span.as_dict(), sort_keys=True))
            separator = ",\n"
        handle.write("\n]}\n")


def _write_jsonl(handle: IO[str], rows: list[dict[str, Any]]) -> None:
    for row in rows:
        handle.write(json.dumps(row, sort_keys=True))
        handle.write("\n")


def write_events_jsonl(path: str, log: RunEventLog) -> None:
    """Write the retained events as JSON Lines, one event per line."""
    with open(path, "w", encoding="utf-8") as handle:
        _write_jsonl(handle, log.events())
