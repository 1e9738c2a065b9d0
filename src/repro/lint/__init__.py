"""``repro lint`` — determinism & concurrency static analysis.

The paper's guarantees (MES regret bounds, bitwise-equivalent ensemble
reuse across backends, Eq. 12/14 billing) hold only while two repo-wide
invariants do:

* every stochastic draw flows through the derived-RNG discipline of
  :mod:`repro.utils.rng` (same ``(seed, key)`` → same stream, in any
  call order); and
* every "time" that selection or simulation observes is the
  :class:`~repro.simulation.clock.SimulatedClock`, never the wall clock.

PR 1's parallel backends and shared :class:`~repro.engine.store.EvaluationStore`
made those invariants easy to violate silently from a worker thread, so
this package machine-checks them on every change instead of relying on
re-audits.  Four per-file AST rules (RPR001–RPR003 and RPR005, see
:mod:`repro.lint.rules`) check each file in isolation; ten
whole-program rules (RPR006–RPR015, see :mod:`repro.lint.project_rules`)
run over a cross-module project model — symbol table, import resolution
and interprocedural call graph (:mod:`repro.lint.project` /
:mod:`repro.lint.callgraph`) plus one taint walker with three lattices
(:mod:`repro.lint.dataflow`): seed flow for RNG laundering, iteration
order for set/filesystem/completion-order values reaching persisted
records, store keys and float reductions, and purity (with the effect
summaries) for cached values, process transport and unbounded growth.
Everything runs via ``repro lint <paths>`` (``--jobs N`` fans the
per-file phase out across processes, ``--cache-dir`` makes warm runs
near-instant — see :mod:`repro.lint.cache` — neither changes findings)
and as a CI gate; see ``docs/STATIC_ANALYSIS.md``.

Violations are suppressed line-by-line with a justified comment::

    something_flagged()  # repro-lint: disable=RPR003 -- bounded: <why>

The justification after ``--`` is mandatory; a bare disable is itself a
violation (RPR005).
"""

from __future__ import annotations

from repro.lint.base import FileContext, LintError, Rule, Violation
from repro.lint.baseline import (
    apply_baseline,
    load_baseline,
    violation_fingerprint,
    write_baseline,
)
from repro.lint.cache import ANALYZER_VERSION, LintCache
from repro.lint.callgraph import CallGraph, CallSite
from repro.lint.dataflow import (
    Finding,
    Origin,
    Taint,
    analyze_ordering,
    analyze_rng_taint,
)
from repro.lint.engine import (
    LintResult,
    iter_python_files,
    known_rule_ids,
    lint_paths,
    lint_project,
    lint_source,
)
from repro.lint.project import (
    DEFAULT_LAYERS,
    LintConfig,
    Project,
    ProjectRule,
    module_name_for_path,
)
from repro.lint.project_rules import ALL_PROJECT_RULES, project_rule_ids
from repro.lint.report import render_json, render_sarif, render_text
from repro.lint.rules import ALL_RULES, rule_ids

__all__ = [
    "ALL_PROJECT_RULES",
    "ALL_RULES",
    "ANALYZER_VERSION",
    "CallGraph",
    "CallSite",
    "DEFAULT_LAYERS",
    "FileContext",
    "Finding",
    "LintCache",
    "LintConfig",
    "LintError",
    "LintResult",
    "Origin",
    "Project",
    "ProjectRule",
    "Rule",
    "Taint",
    "Violation",
    "analyze_ordering",
    "analyze_rng_taint",
    "apply_baseline",
    "iter_python_files",
    "known_rule_ids",
    "lint_paths",
    "lint_project",
    "lint_source",
    "load_baseline",
    "module_name_for_path",
    "project_rule_ids",
    "render_json",
    "render_sarif",
    "render_text",
    "rule_ids",
    "violation_fingerprint",
    "write_baseline",
]
