"""The lint driver: file discovery, rule dispatch, suppression handling.

:func:`lint_source` is the single-source entry (what the per-file rule
tests drive, with virtual paths to opt fixtures into path-scoped rules);
:func:`lint_project` is its whole-program analogue over an in-memory
``{path: source}`` tree; :func:`lint_paths` walks real trees — per-file
rules first (optionally fanned out across processes with ``jobs``), then
the whole-program rules over the combined project — and is what the CLI
and CI gate call.

Parallelism contract: the per-file phase is embarrassingly parallel and
each worker returns plain :class:`~repro.lint.base.Violation` values, so
``jobs=N`` changes wall-clock time only — the final, sorted violation
list is byte-identical to a ``jobs=1`` run.  The project phase always
runs in the parent (it needs every file's AST at once).

Each process parses a file at most once per run.  A serial run hands
the per-file phase's :class:`~repro.lint.base.FileContext` objects to
the whole-program phase, keeping them only when that phase will read
them (a project rule is selected and the cache holds no project entry).
With ``jobs=N`` each worker parses its own copy, and the parent parses
each file once for the whole-program phase.

Memory contract: :func:`lint_paths` pauses the process-wide cyclic
garbage collector for the whole call (workers forked inside it inherit
the pause) and restores the caller's setting on return, also when a
rule raises.  A run builds no reference cycles (no rule helper is a
recursive closure), so reference counting frees everything it
allocates; the collector would only re-walk the parse trees the
whole-program phase keeps alive, and find nothing.
"""

from __future__ import annotations

import gc
from collections.abc import Iterable, Iterator, Mapping, Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from repro.lint.base import DISABLE_COMMENT_RE, FileContext, LintError, Rule, Violation
from repro.lint.cache import LintCache, content_hash, environment_key
from repro.lint.callgraph import CallGraph
from repro.lint.project import LintConfig, Project, ProjectRule
from repro.lint.project_rules import ALL_PROJECT_RULES
from repro.lint.rules import ALL_RULES

__all__ = [
    "LintResult",
    "iter_python_files",
    "known_rule_ids",
    "lint_paths",
    "lint_project",
    "lint_source",
]

#: Directory names never descended into.
_SKIP_DIRS = frozenset({"__pycache__", ".git", ".venv", "venv", "node_modules", ".eggs"})

#: Rule ID reserved for files the analyzer cannot parse.
PARSE_ERROR_ID = "RPR000"


@dataclass(frozen=True)
class LintResult:
    """Outcome of one lint run.

    Attributes:
        violations: Surviving (unsuppressed) findings in path/line order.
        files_checked: Number of files analyzed (parse failures included).
    """

    violations: tuple[Violation, ...]
    files_checked: int

    @property
    def ok(self) -> bool:
        return not self.violations

    def counts_by_rule(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for violation in self.violations:
            counts[violation.rule_id] = counts.get(violation.rule_id, 0) + 1
        return dict(sorted(counts.items()))


def known_rule_ids() -> list[str]:
    """Every shipped rule ID — per-file and whole-program — in order."""
    return [rule.rule_id for rule in ALL_RULES] + [
        rule.rule_id for rule in ALL_PROJECT_RULES
    ]


@dataclass(frozen=True)
class _Suppression:
    rule_ids: frozenset[str]
    justified: bool


def _parse_suppressions(ctx: FileContext) -> dict[int, _Suppression]:
    """Per-line suppressions from ``# repro-lint: disable=...`` comments."""
    suppressions: dict[int, _Suppression] = {}
    for comment in ctx.directives:
        match = DISABLE_COMMENT_RE.search(comment.text)
        if match is None:
            continue
        ids = frozenset(
            part.strip().upper()
            for part in match.group("rules").split(",")
            if part.strip()
        )
        justification = match.group("justification")
        suppressions[comment.line] = _Suppression(
            rule_ids=ids,
            justified=bool(justification and justification.strip()),
        )
    return suppressions


def _comment_only_lines(ctx: FileContext) -> set[int]:
    """The directive lines that hold nothing but the comment; a line
    without a directive cannot suppress, so no other line matters."""
    lines = ctx.source.splitlines()
    only: set[int] = set()
    for comment in ctx.directives:
        index = comment.line - 1
        if 0 <= index < len(lines) and lines[index].strip().startswith("#"):
            only.add(comment.line)
    return only


def _is_suppressed(
    violation: Violation,
    suppressions: dict[int, _Suppression],
    comment_only: set[int],
) -> bool:
    candidates = [violation.line]
    # An own-line disable comment immediately above the statement also
    # applies — multi-line statements make same-line comments awkward.
    if violation.line - 1 in comment_only:
        candidates.append(violation.line - 1)
    for line in candidates:
        supp = suppressions.get(line)
        if supp is None:
            continue
        if "ALL" in supp.rule_ids or violation.rule_id in supp.rule_ids:
            # An unjustified disable cannot silence the RPR005 finding it
            # itself produced — otherwise `disable=all` would be a
            # self-licensing blanket.
            if violation.rule_id == "RPR005" and not supp.justified:
                continue
            return True
    return False


def _unsuppressed(ctx: FileContext, found: list[Violation]) -> list[Violation]:
    """``found`` without the findings ``ctx``'s comments suppress.

    The suppression map is built only for a file with a finding, so a
    clean file's comments are never read.
    """
    if not found:
        return found
    suppressions = _parse_suppressions(ctx)
    comment_only = _comment_only_lines(ctx)
    return [v for v in found if not _is_suppressed(v, suppressions, comment_only)]


def _parse(source: str, path: str) -> FileContext | Violation:
    """``source`` parsed, or the ``RPR000`` finding saying why it is not."""
    try:
        return FileContext.from_source(source, path)
    except LintError as exc:
        return Violation(
            path=path, line=0, col=0, rule_id=PARSE_ERROR_ID, message=str(exc)
        )


def _file_violations(
    parsed: FileContext | Violation, rules: Sequence[Rule], wanted: set[str] | None
) -> list[Violation]:
    """The per-file rules' sorted findings on one parse, suppressions
    applied; a file that does not parse yields its ``RPR000`` alone."""
    if isinstance(parsed, Violation):
        return [parsed]
    found: list[Violation] = []
    for rule in rules:
        if wanted is not None and rule.rule_id not in wanted:
            continue
        if not rule.applies_to(parsed):
            continue
        found.extend(rule.check(parsed))
    return sorted(_unsuppressed(parsed, found))


def lint_source(
    source: str,
    path: str,
    rules: Sequence[Rule] = ALL_RULES,
    select: Iterable[str] | None = None,
) -> list[Violation]:
    """Lint one in-memory source with the per-file rules.

    Args:
        source: Python source text.
        path: The (possibly virtual) POSIX path the source claims; rule
            scoping keys off it.
        rules: Rule instances to run (default: all shipped per-file rules).
        select: Optional rule-ID filter (e.g. ``{"RPR001"}``).
    """
    wanted = {rule_id.upper() for rule_id in select} if select is not None else None
    return _file_violations(_parse(source, path), rules, wanted)


def _project_violations(
    contexts: Mapping[str, FileContext],
    project_rules: Sequence[ProjectRule],
    config: LintConfig,
) -> list[Violation]:
    """Run the whole-program rules over parsed contexts."""
    project = Project.from_contexts(contexts, config=config)
    graph = CallGraph.build(project)
    found: dict[str, list[Violation]] = {}
    for rule in project_rules:
        for violation in rule.check_project(project, graph):
            found.setdefault(violation.path, []).append(violation)
    violations: list[Violation] = []
    for path, in_file in found.items():
        ctx = contexts.get(path)
        violations.extend(_unsuppressed(ctx, in_file) if ctx is not None else in_file)
    return violations


def lint_project(
    sources: Mapping[str, str],
    rules: Sequence[Rule] = ALL_RULES,
    project_rules: Sequence[ProjectRule] = ALL_PROJECT_RULES,
    select: Iterable[str] | None = None,
    config: LintConfig | None = None,
) -> list[Violation]:
    """Lint an in-memory ``{path: source}`` tree, per-file + project rules.

    The whole-program fixture-test entry point: virtual paths determine
    module names exactly as on disk (``src/repro/core/x.py`` →
    ``repro.core.x``), so multi-file fixtures exercise import
    resolution, the call graph and the layer DAG without touching the
    filesystem.
    """
    wanted = {rule_id.upper() for rule_id in select} if select is not None else None
    violations: list[Violation] = []
    contexts: dict[str, FileContext] = {}
    for path in sorted(sources):
        parsed = _parse(sources[path], path)
        violations.extend(_file_violations(parsed, rules, wanted))
        if isinstance(parsed, FileContext):
            contexts[parsed.path] = parsed
    active = [
        rule
        for rule in project_rules
        if wanted is None or rule.rule_id in wanted
    ]
    if active and contexts:
        effective = config if config is not None else LintConfig()
        violations.extend(_project_violations(contexts, active, effective))
    return sorted(violations)


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Yield ``.py`` files under the given files/directories, sorted.

    A file reached twice (``src`` and ``src/../src``) is yielded once,
    under its first spelling.

    Raises:
        LintError: If a named path does not exist.
    """
    seen: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if not path.exists():
            raise LintError(f"no such file or directory: {path}")
        if path.is_file():
            candidates = [path] if path.suffix == ".py" else []
        else:
            # Only the directories below the named one are filtered: the
            # user named it, whatever sits above it (``..``, a dot-dir).
            candidates = [
                candidate
                for candidate in sorted(path.rglob("*.py"))
                if not any(
                    part in _SKIP_DIRS or part.startswith(".")
                    for part in candidate.relative_to(path).parts[:-1]
                )
            ]
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield candidate


def _read_error(path: Path, exc: OSError) -> Violation:
    return Violation(
        path=path.as_posix(),
        line=0,
        col=0,
        rule_id=PARSE_ERROR_ID,
        message=f"cannot read: {exc}",
    )


def _lint_file_job(
    job: tuple[str, str, tuple[str, ...] | None]
) -> list[Violation]:
    """Process-pool worker: per-file rules for one already-read source.

    Module-level (and returning plain frozen dataclasses) so it pickles.
    The parent reads every file exactly once (it needs the bytes for
    content hashing and the project phase anyway) and ships the text to
    the worker, so one consistent snapshot of each file feeds the
    per-file rules, the cache key and the whole-program phase even if
    the file changes mid-run.
    """
    path_str, source, select = job
    return lint_source(source, Path(path_str).as_posix(), select=select)


class _CollectorPaused:
    """Automatic cyclic garbage collection off for a ``with`` block.

    On exit the collector is re-enabled only if it was enabled on entry,
    so a caller that disabled it keeps it disabled and nested blocks are
    safe.  Exiting allocates nothing, so the young collection that the
    block's allocations have made due runs after the block, in the
    caller.
    """

    def __enter__(self) -> None:
        self._was_enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc_info: object) -> None:
        if self._was_enabled:
            gc.enable()


def lint_paths(
    paths: Iterable[str | Path],
    select: Iterable[str] | None = None,
    *,
    jobs: int = 1,
    project_rules: Sequence[ProjectRule] = ALL_PROJECT_RULES,
    config: LintConfig | None = None,
    cache: LintCache | None = None,
) -> LintResult:
    """Lint every Python file under ``paths``.

    Args:
        paths: Files or directories to walk.
        select: Optional rule-ID filter spanning both rule kinds; the
            per-file phase runs the shipped rules it selects.
        jobs: Worker processes for the per-file phase; ``1`` runs
            in-process, where both phases share one parse of each file.
            At most one worker per file to lint is started.  Findings
            are identical for any value.
        project_rules: Whole-program rules to run after the per-file
            phase (skipped entirely when ``select`` excludes them all).
        config: Layer DAG and persistence list; ``DEFAULT_LAYERS`` and
            ``DEFAULT_PERSISTENCE`` in ``repro/lint/project.py`` when
            omitted.
        cache: Incremental cache (see :mod:`repro.lint.cache`).  Hits
            skip analysis; a file is parsed only when a phase the cache
            does not serve reads it, so a fully warm run parses nothing.
            Findings are byte-identical with or without it, for any
            ``jobs``.

    The call pauses the process-wide cyclic garbage collector and
    restores the caller's setting when it returns or raises; workers
    forked inside it inherit the pause.  A run builds no reference
    cycles, so what it allocates is freed by reference counting and no
    collection is owed afterwards.
    """
    with _CollectorPaused():
        return _lint_paths(paths, select, jobs, project_rules, config, cache)


def _lint_paths(
    paths: Iterable[str | Path],
    select: Iterable[str] | None,
    jobs: int,
    project_rules: Sequence[ProjectRule],
    config: LintConfig | None,
    cache: LintCache | None,
) -> LintResult:
    """:func:`lint_paths` with the collector paused.

    A separate frame, so that the run's parse trees are freed when it
    returns, before the collector resumes: the first collection after
    the pause then finds almost nothing young to walk.
    """
    wanted = {rule_id.upper() for rule_id in select} if select is not None else None
    files = list(iter_python_files(paths))
    violations: list[Violation] = []
    active_project_rules = [
        rule
        for rule in project_rules
        if wanted is None or rule.rule_id in wanted
    ]

    # Read every file once, in the parent: the bytes feed content
    # hashing, the per-file rules and the project phase alike.
    sources: dict[Path, str] = {}
    for path in files:
        try:
            sources[path] = path.read_text(encoding="utf-8")
        except OSError as exc:
            violations.append(_read_error(path, exc))

    effective = config if config is not None else LintConfig()

    environment = ""
    digests: dict[str, str] = {}
    file_keys: dict[Path, str] = {}
    if cache is not None:
        rule_ids = [rule.rule_id for rule in ALL_RULES] + [
            rule.rule_id for rule in project_rules
        ]
        environment = environment_key(
            effective.fingerprint(),
            rule_ids,
            sorted(wanted) if wanted is not None else None,
        )
        digests = {
            path.as_posix(): content_hash(source)
            for path, source in sources.items()
        }

    # The project entry is looked up first: the per-file phase keeps its
    # parses for the whole-program phase only when that phase will read
    # them, that is when a project rule is active and the cache missed.
    run_project = bool(active_project_rules and sources)
    project_key = ""
    project_hit: tuple[Violation, ...] | None = None
    if run_project and cache is not None:
        project_key = cache.project_key(environment, digests)
        project_hit = cache.load_project(project_key)
    keep_parses = run_project and project_hit is None
    parses: dict[Path, FileContext | Violation] = {}

    # ---- per-file phase (cache hits served, misses computed) ------------
    pending: list[Path] = []
    for path in files:
        if path not in sources:
            continue
        if cache is not None:
            posix = path.as_posix()
            file_keys[path] = cache.file_key(environment, posix, digests[posix])
            hit = cache.load_file(file_keys[path])
            if hit is not None:
                violations.extend(hit)
                continue
        pending.append(path)

    def run_project_phase() -> list[Violation]:
        if not keep_parses:
            # No project rule is active, or the cache serves the phase.
            return list(project_hit or ())
        contexts: dict[str, FileContext] = {}
        for path in files:
            if path not in sources:
                continue
            parsed = parses.get(path)
            if parsed is None:
                parsed = _parse(sources[path], path.as_posix())
            # A file that does not parse is reported as RPR000 by the
            # per-file phase.
            if isinstance(parsed, FileContext):
                contexts[parsed.path] = parsed
        found: list[Violation] = []
        if contexts:
            found = _project_violations(contexts, active_project_rules, effective)
        if cache is not None:
            cache.store_project(project_key, found)
        return found

    if jobs > 1 and len(pending) > 1:
        select_arg = tuple(sorted(wanted)) if wanted is not None else None
        chunksize = max(1, len(pending) // (jobs * 4))
        with ProcessPoolExecutor(max_workers=min(jobs, len(pending))) as executor:
            mapped = executor.map(
                _lint_file_job,
                [(str(path), sources[path], select_arg) for path in pending],
                chunksize=chunksize,
            )
            # Overlap: while the workers run the per-file rules, the
            # parent runs the whole-program phase — the two phases are
            # independent, so jobs-mode wall clock is max(), not sum(),
            # of them.
            violations.extend(run_project_phase())
            for path, file_violations in zip(pending, mapped, strict=True):
                if cache is not None:
                    cache.store_file(file_keys[path], file_violations)
                violations.extend(file_violations)
    else:
        for path in pending:
            parsed = _parse(sources[path], path.as_posix())
            if keep_parses:
                parses[path] = parsed
            file_violations = _file_violations(parsed, ALL_RULES, wanted)
            if cache is not None:
                cache.store_file(file_keys[path], file_violations)
            violations.extend(file_violations)
        violations.extend(run_project_phase())
    return LintResult(violations=tuple(sorted(violations)), files_checked=len(files))
