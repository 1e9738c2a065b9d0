"""The ``repro lint`` subcommand (also runnable as ``python -m repro.lint``).

Exit codes: 0 — clean; 1 — violations found; 2 — usage/IO error.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Sequence
from pathlib import Path

from repro.lint.base import LintError
from repro.lint.baseline import apply_baseline, load_baseline, write_baseline
from repro.lint.cache import LintCache
from repro.lint.engine import LintResult, known_rule_ids, lint_paths
from repro.lint.explain import RULE_GUIDES, format_guide
from repro.lint.project_rules import ALL_PROJECT_RULES
from repro.lint.report import render_json, render_sarif, render_text
from repro.lint.rules import ALL_RULES

__all__ = ["add_lint_arguments", "main", "run_lint"]

_RENDERERS = {
    "text": render_text,
    "json": render_json,
    "sarif": render_sarif,
}


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the lint flags to ``parser``."""
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        dest="output_format",
        default="text",
        choices=tuple(_RENDERERS),
        help="output format (default: text)",
    )
    parser.add_argument(
        "--select",
        default=None,
        help="comma-separated rule IDs to run (default: all rules)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help=(
            "worker processes for the per-file phase (0 = cpu count); "
            "findings are identical for any value"
        ),
    )
    parser.add_argument(
        "--output",
        default=None,
        help=(
            "write the report to this file instead of stdout (a one-line "
            "summary still prints)"
        ),
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help=(
            "suppress findings recorded in this baseline file; only new "
            "findings fail the run"
        ),
    )
    parser.add_argument(
        "--write-baseline",
        default=None,
        help=(
            "snapshot the current findings to this file (for later "
            "--baseline use) and exit 0"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help=(
            "incremental-analysis cache directory (created if missing); "
            "warm runs serve unchanged files from cache with byte-identical "
            "findings"
        ),
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every rule's ID and summary, then exit",
    )
    parser.add_argument(
        "--explain",
        metavar="RPR0XX",
        default=None,
        help=(
            "print one rule's full guide — description, true/false "
            "positive examples, sanctioned escapes — then exit"
        ),
    )


def _list_rules() -> int:
    for rule in (*ALL_RULES, *ALL_PROJECT_RULES):
        print(f"{rule.rule_id}  {rule.summary}")
    return 0


def _explain_rule(raw: str) -> int:
    rule_id = raw.strip().upper()
    guide = RULE_GUIDES.get(rule_id)
    if guide is None:
        print(
            f"error: unknown rule {raw!r}; known: "
            f"{', '.join(sorted(RULE_GUIDES))}",
            file=sys.stderr,
        )
        return 2
    summaries = {
        rule.rule_id: rule.summary for rule in (*ALL_RULES, *ALL_PROJECT_RULES)
    }
    print(format_guide(guide, summaries.get(rule_id)))
    return 0


def _write_error(path: str, exc: OSError) -> int:
    print(f"error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
    return 2


def _summary_line(result: LintResult, suppressed_by_baseline: int) -> str:
    baseline_note = (
        f" ({suppressed_by_baseline} baselined finding"
        f"{'s' if suppressed_by_baseline != 1 else ''} suppressed)"
        if suppressed_by_baseline
        else ""
    )
    if result.ok:
        return (
            f"ok: {result.files_checked} files checked, no new violations"
            f"{baseline_note}"
        )
    return (
        f"{len(result.violations)} violation"
        f"{'s' if len(result.violations) != 1 else ''} in "
        f"{result.files_checked} files checked{baseline_note}"
    )


def run_lint(args: argparse.Namespace) -> int:
    """Execute a lint run from parsed arguments; returns the exit code."""
    if args.list_rules:
        return _list_rules()
    if args.explain:
        return _explain_rule(args.explain)
    select = None
    if args.select:
        select = {part.strip().upper() for part in args.select.split(",") if part.strip()}
        unknown = select - set(known_rule_ids())
        if unknown:
            print(
                f"error: unknown rule(s) {', '.join(sorted(unknown))}; "
                f"known: {', '.join(known_rule_ids())}",
                file=sys.stderr,
            )
            return 2
    jobs = args.jobs
    if jobs == 0:
        jobs = os.cpu_count() or 1
    if jobs < 1:
        print("error: --jobs must be >= 0", file=sys.stderr)
        return 2
    cache = LintCache(args.cache_dir) if args.cache_dir else None
    try:
        result = lint_paths(args.paths, select=select, jobs=jobs, cache=cache)
    except LintError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if cache is not None:
        # Stderr, deliberately: stdout (the report) stays byte-identical
        # between cold and warm runs.
        total = cache.file_hits + cache.file_misses
        print(
            f"cache: {cache.file_hits}/{total} file hits, project "
            f"{'hit' if cache.project_hits else 'miss'}",
            file=sys.stderr,
        )
    if args.write_baseline:
        try:
            count = write_baseline(args.write_baseline, result.violations)
        except OSError as exc:
            return _write_error(args.write_baseline, exc)
        print(
            f"baseline: {count} finding{'s' if count != 1 else ''} "
            f"recorded to {args.write_baseline}"
        )
        return 0
    suppressed_by_baseline = 0
    if args.baseline:
        try:
            fingerprints = load_baseline(args.baseline)
        except LintError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        surviving, suppressed_by_baseline = apply_baseline(
            result.violations, fingerprints
        )
        result = LintResult(
            violations=surviving, files_checked=result.files_checked
        )
    report = _RENDERERS[args.output_format](result)
    if args.output:
        try:
            Path(args.output).write_text(report + "\n", encoding="utf-8")
        except OSError as exc:
            return _write_error(args.output, exc)
        print(_summary_line(result, suppressed_by_baseline))
        print(f"report written to {args.output}")
    else:
        print(report)
        if suppressed_by_baseline and args.output_format == "text":
            print(
                f"baseline: {suppressed_by_baseline} known finding"
                f"{'s' if suppressed_by_baseline != 1 else ''} suppressed"
            )
    return 0 if result.ok else 1


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point of ``repro lint`` and ``python -m repro.lint``."""
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="determinism & concurrency static analysis (see --list-rules)",
    )
    add_lint_arguments(parser)
    return run_lint(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
