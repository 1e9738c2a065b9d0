"""The RPR rule set: determinism & concurrency invariants as AST checks.

Each rule's docstring is normative — ``repro lint --list-rules`` and
``docs/STATIC_ANALYSIS.md`` both derive from it.  Rules are scoped to the
code paths where their invariant is load-bearing (see ``applies_to``);
scoping is matched on POSIX path fragments so fixtures in tests can opt
in by claiming a matching virtual path.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterator

from repro.lint.base import (
    DISABLE_COMMENT_RE,
    MUTATING_METHODS,
    Comment,
    FileContext,
    Rule,
    Violation,
    assign_root,
    dotted_name,
    self_attr,
    self_write_attr,
)

__all__ = [
    "ALL_RULES",
    "GlobalRngRule",
    "WallClockRule",
    "UnboundedCacheRule",
    "BlanketSuppressionRule",
    "rule_ids",
]

#: Calls that construct an empty/unbounded mutable container.
_MUTABLE_FACTORIES = frozenset(
    {
        "dict",
        "list",
        "set",
        "collections.OrderedDict",
        "collections.defaultdict",
        "collections.deque",
    }
)


class GlobalRngRule(Rule):
    """RPR001 — no global RNG in selection/simulation/engine/ensembling code.

    Every stochastic draw must flow through :mod:`repro.utils.rng`
    (``derive_rng`` / ``derive_seed`` / ``spawn_seeds``): the paper's
    regret bounds and the bitwise backend-equivalence tests assume the
    same ``(seed, key)`` yields the same stream regardless of call order.
    Calls into ``numpy.random.*`` (including bare ``default_rng()``) or
    the stdlib ``random`` module re-introduce order-dependent global
    state, so they are banned in ``core/``, ``simulation/``, ``engine/``
    and ``ensembling/``.  Method calls on derived generators
    (``rng.normal(...)``) are the sanctioned pattern and never flagged.
    """

    rule_id = "RPR001"
    summary = (
        "global RNG (numpy.random.* / stdlib random) outside utils/rng.py "
        "in core/, simulation/, engine/ or ensembling/"
    )

    _SCOPED_DIRS = ("/core/", "/simulation/", "/engine/", "/ensembling/")

    def applies_to(self, ctx: FileContext) -> bool:
        if ctx.path_contains("/utils/rng.py"):
            return False
        return ctx.path_contains(*self._SCOPED_DIRS)

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = ctx.resolve_call(node.func)
            if resolved is None:
                continue
            if resolved.startswith("numpy.random.") or resolved == "numpy.random":
                yield self.violation(
                    ctx,
                    node,
                    f"global numpy RNG call {resolved!r}; derive a generator "
                    "via repro.utils.rng.derive_rng(seed, *key) instead",
                )
            elif resolved == "random" or resolved.startswith("random."):
                yield self.violation(
                    ctx,
                    node,
                    f"stdlib random call {resolved!r}; stdlib random is "
                    "process-global and order-dependent — use "
                    "repro.utils.rng.derive_rng(seed, *key)",
                )


class WallClockRule(Rule):
    """RPR002 — no wall-clock reads in simulation/selection code paths.

    All time the algorithms observe, bill (Eq. 12/14) or report must come
    from the :class:`~repro.simulation.clock.SimulatedClock`; a wall-clock
    read anywhere else makes runs irreproducible and silently skews the
    budget guard.  ``time.time`` / ``time.monotonic`` /
    ``time.perf_counter`` (and their ``_ns`` variants), ``time.process_time``
    and argless ``datetime.now()`` / ``utcnow()`` / ``date.today()`` are
    banned under ``src/repro`` — wall-clock instrumentation is allowed
    only in ``engine/backends.py`` (which times real inference) and in
    ``benchmarks/``.
    """

    rule_id = "RPR002"
    summary = (
        "wall-clock read (time.time/monotonic/perf_counter, argless "
        "datetime.now) outside engine/backends.py and benchmarks/"
    )

    _CLOCK_CALLS = frozenset(
        {
            "time.time",
            "time.time_ns",
            "time.monotonic",
            "time.monotonic_ns",
            "time.perf_counter",
            "time.perf_counter_ns",
            "time.process_time",
            "time.process_time_ns",
        }
    )
    _DATETIME_CALLS = frozenset(
        {
            "datetime.datetime.now",
            "datetime.datetime.utcnow",
            "datetime.date.today",
        }
    )

    def applies_to(self, ctx: FileContext) -> bool:
        if ctx.path_contains("/engine/backends.py", "/benchmarks/"):
            return False
        return ctx.path_contains("/repro/")

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = ctx.resolve_call(node.func)
            if resolved is None:
                continue
            if resolved in self._CLOCK_CALLS:
                yield self.violation(
                    ctx,
                    node,
                    f"wall-clock call {resolved!r}; simulation and selection "
                    "must read SimulatedClock (wall timing belongs in "
                    "engine/backends.py or benchmarks/)",
                )
            elif resolved in self._DATETIME_CALLS and not node.args and not node.keywords:
                yield self.violation(
                    ctx,
                    node,
                    f"wall-clock call {resolved!r}(); use the SimulatedClock "
                    "for anything the algorithms can observe",
                )


class _MutableBinding:
    """One module- or class-level mutable container binding."""

    __slots__ = ("name", "class_name", "node")

    def __init__(self, name: str, class_name: str | None, node: ast.AST) -> None:
        self.name = name
        self.class_name = class_name
        self.node = node


class UnboundedCacheRule(Rule):
    """RPR003 — no unbounded module/class-level mutable caches.

    A dict/list/set bound at module or class scope and *mutated from
    inside a function or method* grows without bound across frames,
    trials and sweeps — exactly the leak class PR 1 removed by replacing
    five such dicts with the capacity-bounded
    :class:`~repro.engine.store.EvaluationStore` (and
    ``SimulatedClock.charge_once`` for billing state).  Population at
    module import time is allowed (bounded by the source itself); runtime
    mutation is flagged.  Instance attributes that merely *shadow* a
    class-level default (``self.x = ...`` somewhere in the class) are not
    flagged.  Genuinely bounded registries keep a suppression with a
    justification, e.g. ``# repro-lint: disable=RPR003 -- bounded: ...``.
    """

    rule_id = "RPR003"
    summary = (
        "module/class-level mutable container mutated at runtime "
        "(unbounded cache; use EvaluationStore)"
    )

    def _is_mutable_literal(self, ctx: FileContext, value: ast.expr) -> bool:
        if isinstance(value, (ast.Dict, ast.List, ast.Set)):
            return True
        if isinstance(value, ast.Call):
            dotted = dotted_name(value.func)
            if dotted is None:
                return False
            resolved = ctx.resolve_call(value.func) or dotted
            return resolved in _MUTABLE_FACTORIES or dotted in _MUTABLE_FACTORIES
        return False

    def _collect_bindings(self, ctx: FileContext) -> list[_MutableBinding]:
        bindings: list[_MutableBinding] = []
        self._scan_bindings(ctx, ctx.tree.body, None, bindings)
        return bindings

    def _scan_bindings(
        self,
        ctx: FileContext,
        body: list[ast.stmt],
        class_name: str | None,
        bindings: list[_MutableBinding],
    ) -> None:
        """Append the mutable bindings of ``body`` (module level, or the
        body of top-level class ``class_name``) to ``bindings``."""
        for stmt in body:
            targets: list[ast.expr] = []
            value: ast.expr | None = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            elif isinstance(stmt, ast.ClassDef) and class_name is None:
                self._scan_bindings(ctx, stmt.body, stmt.name, bindings)
                continue
            if value is None or not self._is_mutable_literal(ctx, value):
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    bindings.append(_MutableBinding(target.id, class_name, stmt))

    def _shadowed_attrs(self, class_node: ast.ClassDef) -> set[str]:
        """Attributes rebound on ``self`` anywhere in the class."""
        shadowed: set[str] = set()
        for node in ast.walk(class_node):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    attr = self_attr(target)
                    if attr is not None:
                        shadowed.add(attr)
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                attr = self_attr(node.target)
                if attr is not None and isinstance(node, ast.AnnAssign):
                    shadowed.add(attr)
        return shadowed

    def _mutations_in_functions(
        self, body: list[ast.stmt], class_name: str | None
    ) -> Iterator[tuple[ast.AST, str, str | None]]:
        """Yield ``(node, rooted_name, owning_class)`` for each mutation
        that happens inside a function/method body in ``body``."""
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._walk_function(stmt, class_name)
            elif isinstance(stmt, ast.ClassDef):
                yield from self._mutations_in_functions(stmt.body, stmt.name)

    def _walk_function(
        self, func: ast.FunctionDef | ast.AsyncFunctionDef, class_name: str | None
    ) -> Iterator[tuple[ast.AST, str, str | None]]:
        for node in ast.walk(func):
            target: ast.expr | None = None
            if isinstance(node, ast.Assign):
                for tgt in node.targets:
                    if isinstance(tgt, ast.Subscript):
                        yield from self._classify_mutation(node, tgt, class_name)
                continue
            if isinstance(node, ast.AugAssign):
                target = node.target
                if isinstance(target, (ast.Subscript, ast.Attribute, ast.Name)):
                    yield from self._classify_mutation(node, target, class_name)
                continue
            if isinstance(node, ast.Call):
                func_expr = node.func
                if (
                    isinstance(func_expr, ast.Attribute)
                    and func_expr.attr in MUTATING_METHODS
                ):
                    yield from self._classify_mutation(
                        node, func_expr.value, class_name
                    )

    def _classify_mutation(
        self, node: ast.AST, expr: ast.expr, class_name: str | None
    ) -> Iterator[tuple[ast.AST, str, str | None]]:
        field_name = self_write_attr(expr)
        if field_name is not None:
            yield node, field_name, class_name
            return
        base = expr
        while isinstance(base, ast.Subscript):
            base = base.value
        if isinstance(base, ast.Attribute):
            chain = dotted_name(base)
            if chain and "." in chain:
                owner, _, attr = chain.partition(".")
                yield node, attr.split(".")[0], owner
            return
        root = assign_root(expr)
        if isinstance(root, ast.Name):
            yield node, root.id, None

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        bindings = self._collect_bindings(ctx)
        if not bindings:
            return
        module_level = {b.name for b in bindings if b.class_name is None}
        class_level: dict[str, set[str]] = {}
        for b in bindings:
            if b.class_name is not None:
                class_level.setdefault(b.class_name, set()).add(b.name)
        shadowed: dict[str, set[str]] = {}
        for stmt in ctx.tree.body:
            if isinstance(stmt, ast.ClassDef) and stmt.name in class_level:
                shadowed[stmt.name] = self._shadowed_attrs(stmt)
        seen: set[tuple[int, int, str]] = set()
        for node, name, owner in self._mutations_in_functions(ctx.tree.body, None):
            hit = False
            if owner is None and name in module_level:
                hit = True
            elif owner is not None and name in class_level.get(owner, set()):
                # ``self.x`` mutations only count when the class never
                # rebinds ``self.x`` (otherwise instances shadow the
                # class-level default and the shared container is inert).
                hit = name not in shadowed.get(owner, set())
            if not hit:
                continue
            key = (getattr(node, "lineno", 0), getattr(node, "col_offset", 0), name)
            if key in seen:
                continue
            seen.add(key)
            label = f"{owner}.{name}" if owner else name
            yield self.violation(
                ctx,
                node,
                f"runtime mutation of module/class-level mutable {label!r}; "
                "unbounded caches leak across trials — use a bounded "
                "EvaluationStore, or suppress with a justification if the "
                "growth is provably bounded",
            )


class BlanketSuppressionRule(Rule):
    """RPR005 — no blanket suppressions.

    ``# type: ignore`` must name its error code(s)
    (``# type: ignore[arg-type]``), ``# noqa`` must name its rule(s)
    (``# noqa: F401``), and ``# repro-lint: disable=...`` must carry a
    ``-- justification``.  Blanket suppressions silently swallow future,
    unrelated violations on the same line — the audit trail the paper's
    reproducibility claims lean on requires every escape hatch to say
    what it lets through and why.  Findings on the suppression comment
    itself cannot be self-suppressed.
    """

    rule_id = "RPR005"
    summary = (
        "blanket suppression: bare '# type: ignore', bare '# noqa', or "
        "'# repro-lint: disable' without a justification"
    )

    _TYPE_IGNORE = re.compile(r"#\s*type:\s*ignore(?!\[)")
    _BARE_NOQA = re.compile(r"#\s*noqa(?!\s*:\s*[A-Z])", re.IGNORECASE)

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for comment in ctx.directives:
            yield from self._check_comment(ctx, comment)

    def _check_comment(self, ctx: FileContext, comment: Comment) -> Iterator[Violation]:
        text = comment.text
        if self._TYPE_IGNORE.search(text):
            yield self.violation(
                ctx,
                comment,
                "bare '# type: ignore'; name the error code, e.g. "
                "'# type: ignore[arg-type]'",
            )
        if self._BARE_NOQA.search(text):
            yield self.violation(
                ctx,
                comment,
                "bare '# noqa'; name the rule, e.g. '# noqa: F401'",
            )
        match = DISABLE_COMMENT_RE.search(text)
        if match is not None:
            justification = match.group("justification")
            if not (justification and justification.strip()):
                yield self.violation(
                    ctx,
                    comment,
                    "repro-lint disable without a justification; write "
                    "'# repro-lint: disable=RPR00X -- <why this is safe>'",
                )


#: Every shipped rule, in ID order.  ``repro lint`` runs all of them
#: unless ``--select`` narrows the set.
ALL_RULES: tuple[Rule, ...] = (
    GlobalRngRule(),
    WallClockRule(),
    UnboundedCacheRule(),
    BlanketSuppressionRule(),
)


def rule_ids() -> list[str]:
    """The shipped rule IDs, in order."""
    return [rule.rule_id for rule in ALL_RULES]
