"""Shared lint infrastructure: violations, file context, the rule ABC.

A :class:`FileContext` bundles everything a rule may need for one file —
the parsed AST, raw source lines, directive comments, and resolved
import aliases — so each rule stays a pure function of the context and
every expensive step (parsing, tokenizing, alias resolution) happens at
most once per file regardless of how many rules run.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import PurePosixPath

__all__ = [
    "Comment",
    "DIRECTIVE_MARKER_RE",
    "DISABLE_COMMENT_RE",
    "FileContext",
    "LintError",
    "MUTATING_METHODS",
    "Rule",
    "Violation",
    "assign_root",
    "dotted_name",
    "self_attr",
    "self_write_attr",
]

#: The suppression comment: ``# repro-lint: disable=RPR001,RPR003 -- why``.
#: Shared between the suppression engine and RPR005 (which requires the
#: ``-- why`` part to be present and non-empty).
DISABLE_COMMENT_RE = re.compile(
    r"#\s*repro-lint:\s*disable=(?P<rules>[A-Za-z0-9_,\s]+?)"
    r"(?:\s*--\s*(?P<justification>.*))?$"
)

#: A word every directive comment names.  It must cover each pattern a
#: directive is read with: ``DISABLE_COMMENT_RE`` above and RPR005's
#: ``_TYPE_IGNORE`` and ``_BARE_NOQA``.  A file whose text matches none
#: of it holds no directive, so it is never tokenized.
DIRECTIVE_MARKER_RE = re.compile(r"repro-lint|type:\s*ignore|noqa", re.IGNORECASE)


#: Container-mutating method names (growth or in-place rewrite).
MUTATING_METHODS = frozenset(
    {
        "append",
        "add",
        "update",
        "setdefault",
        "extend",
        "insert",
        "appendleft",
        "extendleft",
        "__setitem__",
    }
)


class LintError(Exception):
    """A file could not be analyzed (I/O or syntax failure)."""


@dataclass(frozen=True, order=True)
class Violation:
    """One rule finding, pinned to ``path:line:col``.

    Field order matters: dataclass ordering gives the stable
    path → line → column → rule sort the reporters rely on.
    """

    path: str
    line: int
    col: int
    rule_id: str
    message: str

    def as_dict(self) -> dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule_id,
            "message": self.message,
        }


@dataclass(frozen=True)
class Comment:
    """One ``#`` comment token with its position."""

    line: int
    col: int
    text: str


def _collect_directives(source: str) -> tuple[Comment, ...]:
    """The ``#`` comments of ``source`` that match the directive marker.

    Only a tokenizer tells a comment from a ``#`` inside a string, and
    it costs a pass over the whole file, so a file whose text never
    names the marker is not tokenized at all.
    """
    if DIRECTIVE_MARKER_RE.search(source) is None:
        return ()
    directives: list[Comment] = []
    reader = io.StringIO(source).readline
    try:
        for token in tokenize.generate_tokens(reader):
            if token.type == tokenize.COMMENT and DIRECTIVE_MARKER_RE.search(
                token.string
            ):
                directives.append(
                    Comment(line=token.start[0], col=token.start[1], text=token.string)
                )
    except tokenize.TokenError:
        # Unterminated constructs; ast.parse will produce the real error.
        pass
    return tuple(directives)


#: The fields holding statement blocks, handlers or match cases, in the
#: order ``ast.iter_child_nodes`` yields them for every node type.
_BLOCK_FIELDS = ("body", "handlers", "orelse", "finalbody", "cases")


def _resolve_imports(tree: ast.Module) -> tuple[dict[str, str], dict[str, str]]:
    """Map local names to the dotted things they import.

    Returns ``(module_aliases, member_imports)`` where ``module_aliases``
    maps a local name to a module path (``np -> numpy``,
    ``npr -> numpy.random``) and ``member_imports`` maps a local name to
    the full dotted path of an imported member
    (``perf_counter -> time.perf_counter``).  Imports anywhere in the
    file count, and a later one wins a name.  The scan visits only
    statements, handlers and match cases, breadth first, so imports come
    in the order ``ast.walk`` would yield them.
    """
    module_aliases: dict[str, str] = {}
    member_imports: dict[str, str] = {}
    queue: deque[ast.AST] = deque(tree.body)
    while queue:
        node = queue.popleft()
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                module_aliases[local] = target
        elif isinstance(node, ast.ImportFrom):
            if not node.module or node.level != 0:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                member_imports[local] = f"{node.module}.{alias.name}"
        else:
            for name in _BLOCK_FIELDS:
                queue.extend(getattr(node, name, ()))
    return module_aliases, member_imports


def dotted_name(node: ast.expr) -> str | None:
    """The dotted source form of a ``Name``/``Attribute`` chain, else ``None``."""
    parts: list[str] = []
    current: ast.expr = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    parts.append(current.id)
    return ".".join(reversed(parts))


def self_attr(node: ast.expr) -> str | None:
    """``self.<attr>`` → ``attr``; anything else → ``None``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def assign_root(node: ast.expr) -> ast.expr:
    """Peel subscripts/attributes down to the rooted expression."""
    current = node
    while isinstance(current, (ast.Subscript, ast.Attribute)):
        current = current.value
    return current


def self_write_attr(expr: ast.expr) -> str | None:
    """The attribute a ``self.<attr>...`` write chain roots at, if any.

    Handles arbitrary nesting: ``self.cache[key] = v`` and
    ``self.state.results.append(x)`` both resolve to the attribute
    hanging directly off ``self`` (``cache`` / ``state``).
    """
    current = expr
    while isinstance(current, (ast.Subscript, ast.Attribute)):
        attr = self_attr(current) if isinstance(current, ast.Attribute) else None
        if attr is not None:
            return attr
        current = current.value
    return None


@dataclass
class FileContext:
    """Everything the rules need to analyze one file.

    Attributes:
        path: POSIX-style path used for rule scoping and reporting.  For
            in-memory sources (tests) this is whatever the caller claims,
            which is how fixtures opt in or out of path-scoped rules.
        source: Full source text.
        tree: Parsed module AST.
        module_aliases / member_imports: Import resolution maps (see
            :func:`_resolve_imports`).
    """

    path: str
    source: str
    tree: ast.Module
    module_aliases: dict[str, str] = field(default_factory=dict)
    member_imports: dict[str, str] = field(default_factory=dict)

    @classmethod
    def from_source(cls, source: str, path: str) -> FileContext:
        """Parse ``source``; raises :class:`LintError` on syntax errors."""
        posix = str(PurePosixPath(path.replace("\\", "/")))
        try:
            tree = ast.parse(source, filename=posix)
        except SyntaxError as exc:
            raise LintError(
                f"{posix}:{exc.lineno or 0}: cannot parse: {exc.msg}"
            ) from exc
        module_aliases, member_imports = _resolve_imports(tree)
        return cls(
            path=posix,
            source=source,
            tree=tree,
            module_aliases=module_aliases,
            member_imports=member_imports,
        )

    @cached_property
    def directives(self) -> tuple[Comment, ...]:
        """The ``#`` comments that can carry a directive (a disable, a
        ``type: ignore`` or a ``noqa``), in source order.

        Collected on first read, with one tokenize pass over the source
        when its text matches :data:`DIRECTIVE_MARKER_RE`.
        """
        return _collect_directives(self.source)

    def resolve_call(self, func: ast.expr) -> str | None:
        """Resolve a call target to its fully-qualified dotted path.

        ``np.random.rand`` resolves to ``numpy.random.rand`` under
        ``import numpy as np``; a bare ``perf_counter`` resolves to
        ``time.perf_counter`` under ``from time import perf_counter``.
        Returns ``None`` when the root is not an imported name — locals
        like ``rng.random()`` deliberately resolve to nothing, which is
        the false-positive guard for derived-generator method calls.
        """
        dotted = dotted_name(func)
        if dotted is None:
            return None
        root, _, rest = dotted.partition(".")
        if root in self.member_imports:
            base = self.member_imports[root]
            return f"{base}.{rest}" if rest else base
        if root in self.module_aliases:
            base = self.module_aliases[root]
            return f"{base}.{rest}" if rest else base
        return None

    def path_contains(self, *fragments: str) -> bool:
        """True if the context path contains any of the given fragments.

        Each fragment is matched against ``/``-wrapped path text so that
        ``core`` matches ``src/repro/core/mes.py`` but not
        ``src/repro/scoring.py``.
        """
        wrapped = f"/{self.path}"
        return any(fragment in wrapped for fragment in fragments)


class Rule:
    """Base class for one lint rule.

    Subclasses set ``rule_id`` and ``summary`` and implement
    :meth:`check`; :meth:`applies_to` narrows the rule to the code paths
    where its invariant holds (path scoping is part of the rule's
    contract, documented per rule in ``docs/STATIC_ANALYSIS.md``).
    """

    rule_id: str = "RPR000"
    summary: str = ""

    def applies_to(self, ctx: FileContext) -> bool:
        return True

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        raise NotImplementedError

    def violation(
        self, ctx: FileContext, node: ast.AST | Comment, message: str
    ) -> Violation:
        line = getattr(node, "lineno", None) or getattr(node, "line", 0)
        col = getattr(node, "col_offset", None)
        if col is None:
            col = getattr(node, "col", 0)
        return Violation(
            path=ctx.path,
            line=int(line),
            col=int(col),
            rule_id=self.rule_id,
            message=message,
        )
