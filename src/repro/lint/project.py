"""The whole-program layer: modules, symbols, imports and layer config.

A :class:`Project` is the multi-file analogue of
:class:`~repro.lint.base.FileContext`: it maps every analyzed file to a
dotted module name, builds a per-module symbol table (top-level functions,
classes, methods, nested functions and lambdas, each with a stable
qualified name), resolves imports *across* modules — including aliased
imports, ``from package import member``, relative imports and
``__init__`` re-export chains — and records the import edges the layering
rule (RPR009) checks against the declared layer DAG.

The call graph (:mod:`repro.lint.callgraph`) and the taint engine
(:mod:`repro.lint.dataflow`) are built on top of this model; the
whole-program rules RPR006–RPR009 live in
:mod:`repro.lint.project_rules`.
"""

from __future__ import annotations

import ast
import json
import posixpath
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import PurePosixPath
from typing import TYPE_CHECKING, NamedTuple

from repro.lint.base import FileContext, Violation, dotted_name

if TYPE_CHECKING:  # runtime import would cycle: callgraph/dataflow build on this
    from repro.lint.callgraph import CallGraph
    from repro.lint.dataflow import EffectsReport, Finding

__all__ = [
    "DEFAULT_BOUND_METHODS",
    "DEFAULT_LAYERS",
    "DEFAULT_PERSISTENCE",
    "DEFAULT_SANCTIONED_SEAMS",
    "ClassInfo",
    "FunctionInfo",
    "ImportEdge",
    "LintConfig",
    "ModuleInfo",
    "Project",
    "ProjectRule",
    "Resolved",
    "is_persistence_path",
    "module_name_for_path",
]

#: Path anchors: the last occurrence of one of these path segments marks
#: the import root, so ``/repo/src/repro/core/mes.py`` →  ``repro.core.mes``
#: and ``/repo/tests/test_mes.py`` → ``tests.test_mes``.
_ROOT_MARKERS = ("src",)
_TOP_LEVEL_PACKAGES = ("repro", "tests", "benchmarks", "examples")

#: The import-layer DAG enforced by RPR009: each layer (a top-level
#: package under ``repro``; ``root`` is ``repro`` and its ``__main__``)
#: lists the layers it may import at runtime.  Enforcement uses the
#: transitive closure, intra-layer imports are always allowed, and
#: ``if TYPE_CHECKING:`` imports are exempt.  ``engine`` is execution
#: infrastructure below ``core`` (backends, store, resilience); it names
#: no core type, and the frame loop that drives it lives in ``core``.
DEFAULT_LAYERS: dict[str, tuple[str, ...]] = {
    "utils": (),
    "lint": (),
    "obs": (),
    "detection": ("utils",),
    "engine": ("obs", "utils"),
    "ensembling": ("detection", "utils"),
    "simulation": ("detection", "utils"),
    "core": (
        "engine",
        "simulation",
        "ensembling",
        "detection",
        "obs",
        "utils",
    ),
    "tracking": ("simulation", "detection", "utils"),
    "query": (
        "core",
        "engine",
        "simulation",
        "ensembling",
        "detection",
        "obs",
        "utils",
    ),
    "runner": (
        "core",
        "engine",
        "simulation",
        "ensembling",
        "detection",
        "obs",
        "utils",
    ),
    "cli": (
        "runner",
        "query",
        "core",
        "tracking",
        "engine",
        "simulation",
        "ensembling",
        "detection",
        "obs",
        "utils",
        "lint",
    ),
    "root": (
        "cli",
        "runner",
        "query",
        "core",
        "tracking",
        "engine",
        "simulation",
        "ensembling",
        "detection",
        "obs",
        "utils",
        "lint",
    ),
}


#: Path fragments naming the *persistence* modules RPR011 audits — the
#: files whose bytes land on disk (or in another process) and therefore
#: must serialize deterministically.  A module is a persistence module
#: when a bare fragment occurs in its basename (``store`` matches
#: ``engine/store.py`` and ``matstore.py``, not ``store/x.py``), or when
#: its POSIX path ends with a fragment that has a leading ``/``
#: (``/io.py`` matches ``runner/io.py`` but not ``prio.py``).
DEFAULT_PERSISTENCE: tuple[str, ...] = (
    "store",
    "export",
    "events",
    "baseline",
    "report",
    "serial",
    "/io.py",
)

#: Call targets whose results the cache-purity analysis (RPR014) treats
#: as derivable state: the deterministic RNG seam and seed derivation.
#: Injected clocks/timers need no entry here — calls through injected
#: attributes resolve to nothing and are treated as clean by
#: construction.
DEFAULT_SANCTIONED_SEAMS: tuple[str, ...] = (
    "repro.utils.rng.derive_rng",
    "repro.utils.rng.spawn_seeds",
    "repro.utils.rng.derive_seed",
)

#: Method names the effect analysis counts as *bounding* a container —
#: evidence that a grow-only field is in fact evicted/drained somewhere,
#: which clears RPR015.
DEFAULT_BOUND_METHODS: tuple[str, ...] = (
    "pop",
    "popitem",
    "popleft",
    "clear",
    "remove",
    "discard",
    "evict",
    "prune",
    "trim",
    "drain",
    "flush_and_reset",
    "truncate",
)


@dataclass(frozen=True)
class LintConfig:
    """The layer DAG and persistence list one analysis runs with.

    The defaults are the project's own configuration; tests pass other
    values to run RPR009 and RPR011 on fixture DAGs.

    Attributes:
        layers: The layer DAG for RPR009 — layer name → layers it may
            import (closure applied at check time).
        persistence: Path fragments selecting the persistence modules
            RPR011 audits (matched by :func:`is_persistence_path`).
    """

    layers: Mapping[str, tuple[str, ...]] = field(
        default_factory=lambda: DEFAULT_LAYERS
    )
    persistence: tuple[str, ...] = DEFAULT_PERSISTENCE

    def fingerprint(self) -> str:
        """Canonical JSON of everything that can change findings.

        The incremental cache folds this into every entry key, so an
        edit to the layer DAG, the persistence list, the sanctioned seams
        or the bounding methods invalidates all cached findings.
        """
        return json.dumps(
            {
                "layers": {
                    name: list(allowed) for name, allowed in self.layers.items()
                },
                "persistence": list(self.persistence),
                "sanctioned_seams": sorted(DEFAULT_SANCTIONED_SEAMS),
                "bound_methods": sorted(DEFAULT_BOUND_METHODS),
            },
            sort_keys=True,
            separators=(",", ":"),
        )


def is_persistence_path(path: str, fragments: Sequence[str]) -> bool:
    """True when ``path`` names a persistence module per ``fragments``.

    Fragments starting with ``/`` must match at a path-segment boundary;
    bare fragments match anywhere in the basename.  Matching is
    case-sensitive (module paths are).
    """
    posix = PurePosixPath(path).as_posix()
    for fragment in fragments:
        if fragment.startswith("/"):
            if posix.endswith(fragment) or fragment[1:] == posix:
                return True
        elif fragment in posix.rsplit("/", 1)[-1]:
            return True
    return False


def module_name_for_path(path: str) -> str:
    """Derive the dotted module name a POSIX path would import as.

    ``src/repro/core/mes.py`` → ``repro.core.mes`` (anchored at the last
    ``src`` segment); ``tests/test_mes.py`` → ``tests.test_mes``
    (anchored at a known top-level package name); package ``__init__.py``
    files name the package itself.  Paths that match no anchor fall back
    to their stem, which keeps single-file fixture projects working.  The
    path is normalised lexically first, so ``src/repro/../repro/x.py``
    names ``repro.x``.
    """
    parts = list(PurePosixPath(posixpath.normpath(path)).parts)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts.pop()
    anchor = 0
    for index, part in enumerate(parts):
        if part in _ROOT_MARKERS:
            anchor = index + 1
        elif part in _TOP_LEVEL_PACKAGES and anchor == 0:
            anchor = index
    tail = [part for part in parts[anchor:] if part not in ("/", "")]
    if not tail:
        tail = [parts[-1]] if parts else ["<unknown>"]
    return ".".join(tail)


@dataclass(frozen=True)
class ImportEdge:
    """One import recorded for the layering check.

    Attributes:
        target: Dotted module imported (``repro.engine.store``).
        line / col: Location of the import statement.
        type_checking: Inside an ``if TYPE_CHECKING:`` block — erased at
            runtime, so RPR009 exempts it.
        function_level: Imported lazily inside a function body.
    """

    target: str
    line: int
    col: int
    type_checking: bool = False
    function_level: bool = False


@dataclass(frozen=True)
class Resolved:
    """Outcome of resolving a dotted name against the project.

    ``kind`` is ``"function"`` / ``"class"`` (project symbols, ``target``
    is the qualified name), ``"module"`` (a module path that may or may
    not be in the project), or ``"external"`` (a dotted path rooted
    outside the project, e.g. ``numpy.random.default_rng``).
    """

    kind: str
    target: str


@dataclass
class FunctionInfo:
    """One function-like node: module function, method, nested def, lambda.

    Qualified names follow CPython's ``__qualname__`` convention:
    ``repro.core.mes.MES.choose`` for methods,
    ``pkg.mod.outer.<locals>.inner`` for nested defs and
    ``...<locals>.<lambda:LINE:COL>`` for lambdas.

    Construction walks the function's own code once (:func:`_walk`); the
    call graph, the dataflow passes and the project rules read these
    sequences instead of walking the AST again:

    * ``nodes`` — every node the function owns;
    * ``statements`` — its statements, none for a lambda;
    * ``expressions`` — per statement, the statement and its expression
      nodes;
    * ``lambdas`` — the lambdas written directly in its code.
    """

    qname: str
    module: str
    node: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda
    class_qname: str | None = None
    parent: str | None = None
    params: tuple[str, ...] = ()
    is_method: bool = False
    decorators: tuple[str, ...] = ()
    nested: dict[str, str] = field(default_factory=dict)
    nodes: tuple[ast.AST, ...] = field(init=False, repr=False, compare=False)
    statements: tuple[ast.stmt, ...] = field(init=False, repr=False, compare=False)
    expressions: dict[ast.stmt, tuple[ast.AST, ...]] = field(
        init=False, repr=False, compare=False
    )
    lambdas: tuple[ast.Lambda, ...] = field(init=False, repr=False, compare=False)
    _inner: dict[ast.stmt, slice] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        (
            self.nodes,
            self.statements,
            self.expressions,
            self._inner,
            self.lambdas,
        ) = _walk(self.node, _SCOPES)

    @property
    def name(self) -> str:
        return self.qname.rsplit(".", 1)[-1]

    def inner_statements(self, stmt: ast.stmt) -> tuple[ast.stmt, ...]:
        """The statements nested in ``stmt``, one of :attr:`statements`,
        in the same order."""
        span = self._inner.get(stmt)
        return self.statements[span] if span is not None else ()


@dataclass
class ClassInfo:
    """One class definition with its method table and resolved bases."""

    qname: str
    module: str
    node: ast.ClassDef
    methods: dict[str, str] = field(default_factory=dict)
    bases: tuple[str, ...] = ()


@dataclass
class ModuleInfo:
    """One analyzed file as a module: context, namespace, import edges.

    ``nodes`` and ``lambdas`` are the walk of its module-level code,
    class bodies included (:func:`_walk`).
    """

    name: str
    context: FileContext
    is_package: bool
    env: dict[str, tuple[str, str]] = field(default_factory=dict)
    imports: list[ImportEdge] = field(default_factory=list)
    nodes: tuple[ast.AST, ...] = field(init=False, repr=False, compare=False)
    lambdas: tuple[ast.Lambda, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        walk = _walk(self.context.tree, _MODULE_SCOPES)
        self.nodes, self.lambdas = walk.nodes, walk.lambdas

    @property
    def path(self) -> str:
        return self.context.path


def _function_params(
    node: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda,
) -> tuple[str, ...]:
    args = node.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    if args.vararg is not None:
        names.append(args.vararg.arg)
    if args.kwarg is not None:
        names.append(args.kwarg.arg)
    return tuple(names)


def _sub_blocks(stmt: ast.stmt) -> list[list[ast.stmt]]:
    """The statement blocks of a compound statement other than a def or
    class: bodies, ``else``/``finally`` blocks, handlers, ``match`` cases."""
    blocks: list[list[ast.stmt]] = [
        getattr(stmt, attr, None) or [] for attr in ("body", "orelse", "finalbody")
    ]
    blocks.extend(handler.body for handler in getattr(stmt, "handlers", ()))
    blocks.extend(case.body for case in getattr(stmt, "cases", ()))
    return blocks


#: Nodes that open a symbol of their own: a function's walk does not
#: enter them.
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)

#: Module-level code includes class bodies.
_MODULE_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


class _Walk(NamedTuple):
    nodes: tuple[ast.AST, ...]
    statements: tuple[ast.stmt, ...]
    expressions: dict[ast.stmt, tuple[ast.AST, ...]]
    inner: dict[ast.stmt, slice]
    lambdas: tuple[ast.Lambda, ...]


def _walk(
    owner: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda | ast.Module,
    scopes: tuple[type[ast.AST], ...],
) -> _Walk:
    """The one walk of a scope's own code, which every pass then reads.

    ``nodes`` holds the owner's nodes depth first, each before its
    children, the last child first.  Nodes of a ``scopes`` type, at the
    top level too, are not entered; the lambdas among them are collected
    in ``lambdas`` to be registered as symbols of their own.
    ``expressions`` maps each statement to itself and its expression
    nodes, in the same order, stopping at nested statements.
    ``statements`` lists the statements in source order, a compound
    statement before the blocks :func:`_sub_blocks` returns for it, and
    ``inner`` maps each statement that holds statements to the slice of
    ``statements`` nested in it.
    """
    nodes: list[ast.AST] = []
    expressions: dict[ast.stmt, list[ast.AST]] = {}
    lambdas: list[ast.Lambda] = []
    stack: list[tuple[ast.AST, list[ast.AST] | None]] = []
    children: Iterable[ast.AST] = (
        [owner.body] if isinstance(owner, ast.Lambda) else owner.body
    )
    owned: list[ast.AST] | None = None
    while True:
        for child in children:
            if not isinstance(child, scopes):
                stack.append((child, owned))
            elif isinstance(child, ast.Lambda):
                lambdas.append(child)
        if not stack:
            break
        node, owned = stack.pop()
        nodes.append(node)
        if isinstance(node, ast.stmt):
            owned = [node]
            expressions[node] = owned
        elif owned is not None:
            owned.append(node)
        children = ast.iter_child_nodes(node)

    statements: list[ast.stmt] = []
    inner: dict[ast.stmt, slice] = {}
    if not isinstance(owner, ast.Lambda):
        _order(owner.body, scopes, statements, inner)
    return _Walk(
        tuple(nodes),
        tuple(statements),
        {stmt: tuple(found) for stmt, found in expressions.items()},
        inner,
        tuple(lambdas),
    )


def _order(
    block: Sequence[ast.stmt],
    scopes: tuple[type[ast.AST], ...],
    statements: list[ast.stmt],
    inner: dict[ast.stmt, slice],
) -> None:
    """Append ``block``'s statements to ``statements`` for :func:`_walk`.

    A module-level function, not a closure: a recursive closure is a
    reference cycle, which would keep every walked tree alive until the
    next full garbage collection.
    """
    for stmt in block:
        if isinstance(stmt, scopes):
            continue
        statements.append(stmt)
        start = len(statements)
        for sub in _sub_blocks(stmt):
            _order(sub, scopes, statements, inner)
        if len(statements) > start:
            inner[stmt] = slice(start, len(statements))


def _is_type_checking_test(test: ast.expr) -> bool:
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


class Project:
    """The analyzed program: modules, symbols and cross-module resolution.

    Build one with :meth:`from_contexts`; modules are keyed by dotted
    name, functions and classes by qualified name.  All resolution
    helpers are cycle-safe — mutually importing modules and mutually
    recursive calls are first-class citizens of this analysis, not error
    cases.
    """

    def __init__(self, config: LintConfig | None = None) -> None:
        self.config = config if config is not None else LintConfig()
        self.modules: dict[str, ModuleInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self._function_qname_by_node_id: dict[int, str] = {}
        # Memoized result of the ordering-provenance fixpoint; RPR010 and
        # RPR012 both consume it, so it runs once per project.
        self.ordering_cache: list[Finding] | None = None
        # Memoized result of the effect-summary fixpoint; RPR013, RPR014
        # and RPR015 all consume it, so it too runs once per project.
        self.effects_cache: EffectsReport | None = None

    # ---- construction ---------------------------------------------------

    @classmethod
    def from_contexts(
        cls,
        contexts: Mapping[str, FileContext],
        config: LintConfig | None = None,
    ) -> Project:
        project = cls(config=config)
        for path in sorted(contexts):
            project._add_module(contexts[path])
        for module in project.modules.values():
            project._resolve_class_bases(module)
        return project

    def _add_module(self, ctx: FileContext) -> None:
        name = module_name_for_path(ctx.path)
        is_package = PurePosixPath(ctx.path).name == "__init__.py"
        module = ModuleInfo(name=name, context=ctx, is_package=is_package)
        # Later files win on (pathological) duplicate module names; the
        # sorted insertion order keeps even that deterministic.
        self.modules[name] = module
        # Methods, not recursive closures: a closure that calls itself is
        # a reference cycle, and one that holds ``self`` would keep the
        # whole project alive until the next full garbage collection.
        self._scan_imports(module, ctx.tree.body, False, False)
        self._collect_definitions(module, ctx.tree.body, name, None, None)
        for lam in module.lambdas:
            self._register_lambda(module, lam, None)

    def _scan_imports(
        self,
        module: ModuleInfo,
        body: list[ast.stmt],
        type_checking: bool,
        function_level: bool,
    ) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                self._record_import(module, stmt, type_checking, function_level)
            elif isinstance(stmt, ast.If):
                inner_tc = type_checking or _is_type_checking_test(stmt.test)
                self._scan_imports(module, stmt.body, inner_tc, function_level)
                self._scan_imports(module, stmt.orelse, type_checking, function_level)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._scan_imports(module, stmt.body, type_checking, True)
            elif isinstance(stmt, ast.ClassDef):
                self._scan_imports(module, stmt.body, type_checking, function_level)
            else:
                for block in _sub_blocks(stmt):
                    self._scan_imports(module, block, type_checking, function_level)

    def _record_import(
        self,
        module: ModuleInfo,
        node: ast.Import | ast.ImportFrom,
        type_checking: bool,
        function_level: bool,
    ) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                module.imports.append(
                    ImportEdge(
                        target=alias.name,
                        line=node.lineno,
                        col=node.col_offset,
                        type_checking=type_checking,
                        function_level=function_level,
                    )
                )
                if not function_level:
                    if alias.asname is not None:
                        module.env[alias.asname] = ("module", alias.name)
                    else:
                        root = alias.name.split(".")[0]
                        module.env[root] = ("module", root)
            return
        target = self._absolute_import_base(module, node)
        if target is None:
            return
        module.imports.append(
            ImportEdge(
                target=target,
                line=node.lineno,
                col=node.col_offset,
                type_checking=type_checking,
                function_level=function_level,
            )
        )
        if function_level:
            return
        for alias in node.names:
            if alias.name == "*":
                continue
            local = alias.asname or alias.name
            module.env[local] = ("member", f"{target}.{alias.name}")

    @staticmethod
    def _absolute_import_base(
        module: ModuleInfo, node: ast.ImportFrom
    ) -> str | None:
        if node.level == 0:
            return node.module
        base_parts = module.name.split(".")
        if not module.is_package:
            base_parts = base_parts[:-1]
        hops_up = node.level - 1
        if hops_up > len(base_parts):
            return None
        if hops_up:
            base_parts = base_parts[:-hops_up]
        if node.module:
            base_parts = base_parts + node.module.split(".")
        return ".".join(base_parts) if base_parts else None

    def _collect_definitions(
        self,
        module: ModuleInfo,
        body: list[ast.stmt],
        prefix: str,
        class_qname: str | None,
        parent: FunctionInfo | None,
    ) -> None:
        # Defs and classes nested in if/try/with/loop/match blocks are
        # symbols too; at module level they bind names like top-level ones.
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qname = f"{prefix}.{stmt.name}"
                info = self._register_function(
                    module, stmt, qname, class_qname, parent
                )
                if class_qname is not None:
                    owner_class = self.classes.get(class_qname)
                    if owner_class is not None:
                        owner_class.methods.setdefault(stmt.name, qname)
                elif parent is None:
                    module.env[stmt.name] = ("function", qname)
                for lam in info.lambdas:
                    self._register_lambda(module, lam, info)
                self._collect_definitions(
                    module, stmt.body, f"{qname}.<locals>", None, info
                )
            elif isinstance(stmt, ast.ClassDef):
                qname = f"{prefix}.{stmt.name}"
                self.classes[qname] = ClassInfo(
                    qname=qname, module=module.name, node=stmt
                )
                if class_qname is None and parent is None:
                    module.env[stmt.name] = ("class", qname)
                self._collect_definitions(module, stmt.body, qname, qname, None)
            else:
                for block in _sub_blocks(stmt):
                    self._collect_definitions(
                        module, block, prefix, class_qname, parent
                    )

    def _register_function(
        self,
        module: ModuleInfo,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        qname: str,
        class_qname: str | None,
        parent: FunctionInfo | None,
    ) -> FunctionInfo:
        decorators = tuple(
            decorator_name
            for decorator in node.decorator_list
            if (decorator_name := _decorator_name(decorator)) is not None
        )
        info = FunctionInfo(
            qname=qname,
            module=module.name,
            node=node,
            class_qname=class_qname,
            parent=parent.qname if parent is not None else None,
            params=_function_params(node),
            is_method=class_qname is not None and "staticmethod" not in decorators,
            decorators=decorators,
        )
        self.functions[qname] = info
        self._function_qname_by_node_id[id(node)] = qname
        if parent is not None:
            parent.nested[node.name] = qname
        return info

    def _register_lambda(
        self, module: ModuleInfo, node: ast.Lambda, parent: FunctionInfo | None
    ) -> None:
        """Register a lambda under its enclosing function, or under the
        module for one in module-level code."""
        if id(node) in self._function_qname_by_node_id:
            return
        prefix = f"{parent.qname}.<locals>" if parent is not None else module.name
        qname = f"{prefix}.<lambda:{node.lineno}:{node.col_offset}>"
        info = FunctionInfo(
            qname=qname,
            module=module.name,
            node=node,
            class_qname=parent.class_qname if parent is not None else None,
            parent=parent.qname if parent is not None else None,
            params=_function_params(node),
        )
        self.functions[qname] = info
        self._function_qname_by_node_id[id(node)] = qname
        for lam in info.lambdas:
            self._register_lambda(module, lam, info)

    def _resolve_class_bases(self, module: ModuleInfo) -> None:
        for class_info in self.classes.values():
            if class_info.module != module.name:
                continue
            bases: list[str] = []
            for base in class_info.node.bases:
                dotted = dotted_name(base)
                if dotted is None:
                    continue
                resolved = self.resolve(module.name, dotted)
                if resolved is not None and resolved.kind == "class":
                    bases.append(resolved.target)
            class_info.bases = tuple(bases)

    # ---- resolution -----------------------------------------------------

    def function_for_node(self, node: ast.AST) -> FunctionInfo | None:
        """The :class:`FunctionInfo` registered for an AST def/lambda node."""
        qname = self._function_qname_by_node_id.get(id(node))
        return self.functions.get(qname) if qname is not None else None

    def resolve(self, module_name: str, dotted: str) -> Resolved | None:
        """Resolve a dotted name used inside ``module_name``.

        Follows import aliases, package attribute access and ``__init__``
        re-export chains; returns ``None`` for names rooted at locals or
        builtins (the caller's false-positive guard).
        """
        module = self.modules.get(module_name)
        if module is None:
            return None
        head, _, rest = dotted.partition(".")
        binding = module.env.get(head)
        if binding is None:
            return None
        resolved = self._resolve_binding(binding, set())
        if resolved is None:
            return None
        return self._descend(resolved, rest.split(".") if rest else [], set())

    def _resolve_binding(
        self, binding: tuple[str, str], seen: set[tuple[str, str]]
    ) -> Resolved | None:
        kind, target = binding
        if kind in ("function", "class", "module"):
            return Resolved(kind, target)
        if kind == "member":
            return self._resolve_member(target, seen)
        return Resolved("external", target)

    def _resolve_member(
        self, dotted: str, seen: set[tuple[str, str]]
    ) -> Resolved | None:
        """Resolve ``package.name`` from a ``from package import name``."""
        if dotted in self.modules:
            return Resolved("module", dotted)
        owner, _, name = dotted.rpartition(".")
        if owner in self.modules:
            exported = self.resolve_export(owner, name, seen)
            if exported is not None:
                return exported
            return Resolved("external", dotted)
        return Resolved("external", dotted)

    def resolve_export(
        self, module_name: str, name: str, seen: set[tuple[str, str]] | None = None
    ) -> Resolved | None:
        """What ``from module_name import name`` would bind, following
        re-export chains (``__init__`` files importing from submodules)
        with a cycle guard."""
        if seen is None:
            seen = set()
        key = (module_name, name)
        if key in seen:
            return None
        seen.add(key)
        module = self.modules.get(module_name)
        if module is None:
            return None
        binding = module.env.get(name)
        if binding is None:
            submodule = f"{module_name}.{name}"
            if submodule in self.modules:
                return Resolved("module", submodule)
            return None
        return self._resolve_binding(binding, seen)

    def _descend(
        self, resolved: Resolved, rest: list[str], seen: set[tuple[str, str]]
    ) -> Resolved | None:
        current = resolved
        remaining = list(rest)
        while remaining:
            head = remaining.pop(0)
            if current.kind == "module":
                submodule = f"{current.target}.{head}"
                if submodule in self.modules:
                    current = Resolved("module", submodule)
                    continue
                if current.target in self.modules:
                    inner = self.resolve_export(current.target, head, seen)
                    if inner is None:
                        return None
                    current = inner
                    continue
                current = Resolved("external", submodule)
            elif current.kind == "class":
                method = self.method(current.target, head)
                if method is None:
                    return None
                current = Resolved("function", method)
            elif current.kind == "external":
                current = Resolved("external", f"{current.target}.{head}")
            else:  # attribute access on a function — nothing to resolve
                return None
        return current

    def method(
        self, class_qname: str, name: str, _seen: frozenset[str] = frozenset()
    ) -> str | None:
        """Look a method up on a class, following project-resolved bases."""
        if class_qname in _seen:
            return None
        class_info = self.classes.get(class_qname)
        if class_info is None:
            return None
        if name in class_info.methods:
            return class_info.methods[name]
        for base in class_info.bases:
            found = self.method(base, name, _seen | {class_qname})
            if found is not None:
                return found
        return None

    # ---- layering -------------------------------------------------------

    def layer_of(self, module_name: str) -> str | None:
        """The layer a module belongs to; ``None`` outside the package."""
        if module_name == "repro":
            return "root"
        if not module_name.startswith("repro."):
            return None
        segment = module_name.split(".")[1]
        if segment in ("__main__", "__init__"):
            return "root"
        return segment


def _decorator_name(decorator: ast.expr) -> str | None:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return dotted_name(target)


class ProjectRule:
    """Base class for one whole-program rule (RPR006+).

    Unlike :class:`~repro.lint.base.Rule`, which sees one file, a project
    rule sees the whole :class:`Project` plus its call graph and reports
    violations against any file in it.  Suppression comments work
    identically — the engine matches each finding against the suppression
    map of the file it lands in.
    """

    rule_id: str = "RPR000"
    summary: str = ""

    def check_project(
        self, project: Project, graph: CallGraph
    ) -> Iterator[Violation]:
        raise NotImplementedError

    def violation(
        self, path: str, node: ast.AST, message: str
    ) -> Violation:
        return Violation(
            path=path,
            line=int(getattr(node, "lineno", 0) or 0),
            col=int(getattr(node, "col_offset", 0) or 0),
            rule_id=self.rule_id,
            message=message,
        )
