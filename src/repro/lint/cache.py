"""The incremental analysis cache behind ``repro lint --cache-dir``.

Warm lint runs should be near-instant: most files have not changed since
the last run, so neither have their findings.  The cache persists two
kinds of entry under a flat directory:

* **per-file entries** — the per-file-phase violations of one source
  file, keyed by the file's content hash;
* **one project entry** — the whole-program-phase violations, keyed over
  *every* analyzed file's ``(path, content-hash)`` pair, because any
  edit anywhere can change cross-module resolution, the call graph or a
  dataflow summary.

Every key also folds in:

* :data:`ANALYZER_VERSION` — bumped whenever a rule or the engine
  changes in a findings-affecting way, so stale logic never serves;
* the active rule IDs and ``--select`` set;
* the :meth:`~repro.lint.project.LintConfig.fingerprint` of the run's
  config (layer DAG + persistence list, sanctioned seams and bounding
  methods).

Changing any ingredient changes the key, so invalidation is purely
constructive — old entries are simply never looked up again (and can be
deleted at will; the cache directory is disposable).

Entries are JSON with sorted keys; a cache hit reconstructs the exact
:class:`~repro.lint.base.Violation` tuples the cold run produced, so
cold and warm output are byte-identical.  Writes go through a temp file
plus :func:`os.replace`, which is atomic on POSIX and Windows — two
lint processes racing on one cache directory at worst both compute and
one write wins whole, never torn.  Loads treat *any* problem (missing
file, bad JSON, wrong shape) as a miss; the engine then recomputes and
overwrites, so a corrupt entry heals itself.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections.abc import Iterable, Mapping, Sequence
from pathlib import Path

from repro.lint.base import Violation

__all__ = [
    "ANALYZER_VERSION",
    "LintCache",
    "content_hash",
    "environment_key",
]

#: Bump on any rule/engine change that can alter findings; every cache
#: key folds this in, so an upgraded analyzer never serves stale
#: results computed by older logic.
ANALYZER_VERSION = "7"

_ENTRY_SUFFIX = ".json"


def content_hash(source: str) -> str:
    """Stable digest of one file's source text."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def environment_key(
    config_fingerprint: str,
    rule_ids: Sequence[str],
    select: Iterable[str] | None,
) -> str:
    """Digest of everything besides file contents that shapes findings."""
    payload = json.dumps(
        {
            "analyzer_version": ANALYZER_VERSION,
            "config": config_fingerprint,
            "rules": sorted(rule_ids),
            "select": sorted(select) if select is not None else None,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _violations_payload(violations: Iterable[Violation]) -> list[dict[str, object]]:
    return [
        {
            "path": v.path,
            "line": v.line,
            "col": v.col,
            "rule": v.rule_id,
            "message": v.message,
        }
        for v in violations
    ]


def _violations_from_payload(payload: object) -> tuple[Violation, ...] | None:
    if not isinstance(payload, list):
        return None
    out: list[Violation] = []
    for item in payload:
        if not isinstance(item, dict):
            return None
        try:
            out.append(
                Violation(
                    path=str(item["path"]),
                    line=int(item["line"]),
                    col=int(item["col"]),
                    rule_id=str(item["rule"]),
                    message=str(item["message"]),
                )
            )
        except (KeyError, TypeError, ValueError):
            return None
    return tuple(out)


class LintCache:
    """One cache directory plus hit/miss counters for this run.

    The directory is created lazily on first store.  Counters
    (``file_hits``/``file_misses``/``project_hits``/``project_misses``)
    exist for tests and the stderr summary; they never influence
    findings.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.file_hits = 0
        self.file_misses = 0
        self.project_hits = 0
        self.project_misses = 0

    # ---- keys -----------------------------------------------------------

    def file_key(self, environment: str, path: str, digest: str) -> str:
        payload = json.dumps(
            {"env": environment, "kind": "file", "path": path, "sha": digest},
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def project_key(
        self, environment: str, file_digests: Mapping[str, str]
    ) -> str:
        payload = json.dumps(
            {
                "env": environment,
                "kind": "project",
                "files": sorted(file_digests.items()),
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    # ---- entries --------------------------------------------------------

    def _entry_path(self, key: str) -> Path:
        return self.root / f"{key}{_ENTRY_SUFFIX}"

    def _load(self, key: str) -> tuple[Violation, ...] | None:
        try:
            raw = self._entry_path(key).read_text("utf-8")
            payload = json.loads(raw)
        except (OSError, ValueError):
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("analyzer_version") != ANALYZER_VERSION
        ):
            return None
        return _violations_from_payload(payload.get("violations"))

    def _store(self, key: str, violations: Iterable[Violation]) -> None:
        payload = json.dumps(
            {
                "analyzer_version": ANALYZER_VERSION,
                "violations": _violations_payload(violations),
            },
            sort_keys=True,
        )
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            target = self._entry_path(key)
            tmp = target.with_name(f"{target.name}.tmp-{os.getpid()}")
            tmp.write_text(payload + "\n", "utf-8")
            os.replace(tmp, target)
        except OSError:
            # A read-only or vanished cache directory degrades to
            # cold-run behaviour; findings are unaffected.
            return

    # ---- typed accessors ------------------------------------------------

    def load_file(self, key: str) -> tuple[Violation, ...] | None:
        found = self._load(key)
        if found is None:
            self.file_misses += 1
        else:
            self.file_hits += 1
        return found

    def store_file(self, key: str, violations: Iterable[Violation]) -> None:
        self._store(key, violations)

    def load_project(self, key: str) -> tuple[Violation, ...] | None:
        found = self._load(key)
        if found is None:
            self.project_misses += 1
        else:
            self.project_hits += 1
        return found

    def store_project(self, key: str, violations: Iterable[Violation]) -> None:
        self._store(key, violations)
