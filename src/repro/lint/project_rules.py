"""The whole-program rules RPR006–RPR015.

These run after the per-file pass, over the :class:`~repro.lint.project.Project`
model and its call graph (see ``docs/STATIC_ANALYSIS.md`` for the
pipeline architecture).  Findings land in whichever file the offending
node lives in and are suppressed with the same justified
``# repro-lint: disable=...`` comments as the per-file rules.
"""

from __future__ import annotations

import ast
from collections import deque
from collections.abc import Callable, Collection, Iterable, Iterator, Mapping

from repro.lint.base import (
    MUTATING_METHODS,
    Violation,
    assign_root,
    dotted_name,
    self_write_attr,
)
from repro.lint.callgraph import (
    CallGraph,
    CallSite,
    _lookup_nested,
    enclosing_class,
)
from repro.lint.dataflow import (
    EffectSummary,
    EffectsReport,
    GrowthSite,
    _local_names,
    analyze_effects,
    analyze_ordering,
    analyze_rng_taint,
)
from repro.lint.project import (
    FunctionInfo,
    ModuleInfo,
    Project,
    ProjectRule,
    is_persistence_path,
)

__all__ = [
    "ALL_PROJECT_RULES",
    "SeedFlowTaintRule",
    "InterprocLocksetRule",
    "ResourceSafetyRule",
    "ImportLayeringRule",
    "OrderedSinkRule",
    "UnstableSerializationRule",
    "ParallelReductionOrderRule",
    "ProcessTransportRule",
    "CachePurityRule",
    "UnboundedGrowthRule",
    "project_rule_ids",
]

_MAX_CHAIN_DEPTH = 20


def _callable_qname(
    project: Project, module: str, fn: FunctionInfo | None, expr: ast.expr
) -> str | None:
    """Qualified name of the project function a callable expression in
    ``fn`` (``None``: module-level code) references: bound ``self``/``cls``
    methods, nested defs up the enclosing chain, module names and
    re-exports."""
    if (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id in ("self", "cls")
    ):
        class_qname = enclosing_class(project, fn)
        return project.method(class_qname, expr.attr) if class_qname else None
    dotted = dotted_name(expr)
    if dotted is None:
        return None
    if isinstance(expr, ast.Name):
        nested = _lookup_nested(project, fn, dotted)
        if nested is not None:
            return nested
    resolved = project.resolve(module, dotted)
    if resolved is not None and resolved.kind == "function":
        return resolved.target
    return None


def _functions_by_module(project: Project) -> dict[str, list[FunctionInfo]]:
    """Each module's functions, in sorted qualified-name order."""
    grouped: dict[str, list[FunctionInfo]] = {}
    for qname in sorted(project.functions):
        fn = project.functions[qname]
        grouped.setdefault(fn.module, []).append(fn)
    return grouped


def _submitted_callables(
    project: Project, module: str, fn: FunctionInfo | None, call: ast.Call
) -> list[tuple[ast.expr, FunctionInfo]]:
    """The (argument expression, resolved function) pairs handed over at
    a dispatch site."""
    submitted: list[tuple[ast.expr, FunctionInfo]] = []
    for arg in list(call.args) + [kw.value for kw in call.keywords]:
        target: FunctionInfo | None = None
        if isinstance(arg, ast.Lambda):
            target = project.function_for_node(arg)
        elif isinstance(arg, (ast.Name, ast.Attribute)):
            qname = _callable_qname(project, module, fn, arg)
            if qname is not None:
                target = project.functions.get(qname)
        if target is not None:
            submitted.append((arg, target))
    return submitted


class SeedFlowTaintRule(ProjectRule):
    """RPR006 — no ambient RNG flowing into core/simulation/engine/ensembling.

    RPR001 bans constructing global RNGs *inside* the scoped layers; this
    rule closes the laundering loophole: a generator minted elsewhere
    without a sanctioned seed (``numpy.random.default_rng()`` with no
    argument, ``RandomState()``, ``Generator(PCG64())``,
    ``random.Random()``, or a hardcoded literal seed anywhere under
    ``repro.*``) and handed into a scoped-layer function through
    arguments, return values or ``self`` fields.  Every RNG reaching
    those layers must trace back to ``repro.utils.rng.derive_rng`` or to
    a seed threaded in explicitly.  Each finding names the untainted
    origin (construct, reason, site) and the full call chain that
    carried it.
    """

    rule_id = "RPR006"
    summary = (
        "ambient (unseeded/hardcoded-seed) RNG reaches core/, simulation/, "
        "engine/ or ensembling/ through the call graph instead of "
        "repro.utils.rng.derive_rng"
    )

    def check_project(
        self, project: Project, graph: CallGraph
    ) -> Iterator[Violation]:
        for finding in analyze_rng_taint(project, graph):
            flow = " -> ".join(finding.taint.chain)
            yield Violation(
                path=finding.path,
                line=finding.line,
                col=finding.col,
                rule_id=self.rule_id,
                message=(
                    f"RNG reaching {finding.entry} originates from ambient "
                    f"{finding.taint.origin.describe()}; flow: {flow}. Derive the "
                    "generator via repro.utils.rng.derive_rng(seed, *key) "
                    "or thread the seed in as an explicit parameter"
                ),
            )


#: Dispatch method names that hand a callable to an execution backend.
DISPATCH_METHODS = frozenset({"run", "submit", "map", "apply_async"})

#: Receiver-name fragments that mark a dispatch receiver as a backend.
RECEIVER_HINTS = ("backend", "executor", "pool", "worker")


def receiver_is_backend(receiver: ast.expr) -> bool:
    """True when a dispatch receiver looks like an execution backend."""
    if isinstance(receiver, ast.Call):
        receiver = receiver.func
    dotted = dotted_name(receiver)
    if dotted is None:
        return False
    lowered = dotted.lower()
    return any(hint in lowered for hint in RECEIVER_HINTS)


def locked_lines(nodes: Iterable[ast.AST]) -> set[int]:
    """Line numbers covered by a ``with <something lock-ish>:`` block
    among ``nodes``."""
    locked: set[int] = set()
    for node in nodes:
        if not isinstance(node, (ast.With, ast.AsyncWith)):
            continue
        for item in node.items:
            expr = item.context_expr
            if isinstance(expr, ast.Call):
                expr = expr.func
            dotted = dotted_name(expr) or ""
            if "lock" in dotted.lower():
                end = getattr(node, "end_lineno", node.lineno)
                locked.update(range(node.lineno, (end or node.lineno) + 1))
                break
    return locked


def shared_writes(
    scopes: Iterable[tuple[FunctionInfo, Collection[str]]]
) -> list[tuple[ast.AST, str]]:
    """Mutations of non-local state in ``scopes``, each a function or
    lambda paired with the names local to its code.

    Returns ``(node, label)`` pairs in source order, where ``label`` is
    ``self.<attr>`` for instance-state writes or the bare name of a
    closure/global target.  A write whose root is local to the scope it
    is written in is not shared.
    """
    writes: list[tuple[ast.AST, str]] = []
    for scope, local_names in scopes:
        for node in scope.nodes:
            exprs: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                exprs = [t for t in node.targets if isinstance(t, ast.Subscript)]
            elif isinstance(node, ast.AugAssign) and isinstance(
                node.target, (ast.Subscript, ast.Attribute)
            ):
                exprs = [node.target]
            elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                if node.func.attr in MUTATING_METHODS:
                    exprs = [node.func.value]
            for expr in exprs:
                attr = self_write_attr(expr)
                if attr is not None:
                    writes.append((node, f"self.{attr}"))
                    continue
                root = assign_root(expr)
                if isinstance(root, ast.Name) and root.id not in local_names:
                    writes.append((node, root.id))
    writes.sort(
        key=lambda write: (
            getattr(write[0], "lineno", 0),
            getattr(write[0], "col_offset", 0),
        )
    )
    return writes


def _own_and_lambda_scopes(
    project: Project, fn: FunctionInfo
) -> list[tuple[FunctionInfo, frozenset[str]]]:
    """``fn`` and the lambdas written in it, at any depth, each with the
    names local to its code: its own and those of the scopes it is
    written in.  A def or class nested in ``fn`` is a function of its
    own, checked when the call graph reaches it."""
    scopes = [(fn, _local_names(fn))]
    lambdas = [(lam, scopes[0][1]) for lam in fn.lambdas]
    while lambdas:
        lam, enclosing = lambdas.pop()
        info = project.function_for_node(lam)
        if info is not None:
            local_names = enclosing | _local_names(info)
            scopes.append((info, local_names))
            lambdas.extend((inner, local_names) for inner in info.lambdas)
    return scopes


class InterprocLocksetRule(ProjectRule):
    """RPR007 — no unlocked shared-state write reachable from a backend.

    Callables handed to an execution backend (``backend.run`` /
    ``executor.submit`` / ``pool.map`` / ``apply_async`` on a
    receiver named like a backend, executor, pool or worker) may run on
    worker threads concurrently; writing shared state from them without
    holding a lock is a data race that breaks the bitwise
    backend-equivalence guarantee.  The rule checks dispatch sites in
    functions and in module-level code, resolves every submitted
    callable lexically (lambdas, nested and module functions, ``self``
    methods of the enclosing method's class), follows the call graph
    from it to any transitively reachable function — across modules,
    through methods, aliased imports and re-exports — and flags writes
    to shared state (``self.*`` containers, closure/module globals) that
    no lock in the chain protects.  A lock held by a *caller* around the
    call site propagates down the chain, so helpers invoked under
    ``with self._lock:`` are correctly treated as protected.  Each
    finding carries the full call chain from submission to mutation.
    Single-threaded hook drivers such as a ``pipeline.run(frames, ...)``
    loop are out of scope by receiver name.
    """

    rule_id = "RPR007"
    summary = (
        "unlocked shared-state write reachable, through any number of "
        "calls and modules, from a backend-submitted callable"
    )

    def check_project(
        self, project: Project, graph: CallGraph
    ) -> Iterator[Violation]:
        reported: set[tuple[str, int, str, str, int]] = set()
        functions = _functions_by_module(project)
        for module_name in sorted(project.modules):
            module = project.modules[module_name]
            for fn, node in self._dispatch_sites(
                module, functions.get(module_name, [])
            ):
                for _, submitted in _submitted_callables(
                    project, module_name, fn, node
                ):
                    yield from self._trace(
                        project, graph, module, node, submitted, reported
                    )

    @staticmethod
    def _dispatch_sites(
        module: ModuleInfo, functions: list[FunctionInfo]
    ) -> Iterator[tuple[FunctionInfo | None, ast.Call]]:
        """Every backend dispatch call in a module, given its functions,
        with the function whose scope resolves its names; ``None`` for
        module-level code (``if __name__ == "__main__":`` blocks, class
        bodies)."""
        scopes: list[tuple[FunctionInfo | None, Iterable[ast.AST]]] = [
            (fn, fn.nodes) for fn in functions
        ]
        scopes.append((None, module.nodes))
        for fn, nodes in scopes:
            for node in nodes:
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in DISPATCH_METHODS
                    and receiver_is_backend(node.func.value)
                ):
                    yield fn, node

    def _trace(
        self,
        project: Project,
        graph: CallGraph,
        submission_module: ModuleInfo,
        submission: ast.Call,
        submitted: FunctionInfo,
        reported: set[tuple[str, int, str, str, int]],
    ) -> Iterator[Violation]:
        visited: set[tuple[str, bool]] = {(submitted.qname, False)}
        yield from self._walk(
            project,
            graph,
            submission_module,
            submission,
            submitted,
            reported,
            visited,
            submitted,
            (),
            False,
        )

    def _walk(
        self,
        project: Project,
        graph: CallGraph,
        submission_module: ModuleInfo,
        submission: ast.Call,
        submitted: FunctionInfo,
        reported: set[tuple[str, int, str, str, int]],
        visited: set[tuple[str, bool]],
        fn: FunctionInfo,
        chain: tuple[CallSite, ...],
        under_lock: bool,
    ) -> Iterator[Violation]:
        """One step of ``_trace``: ``fn``'s unlocked shared writes, then
        each callee in a ``(function, lock state)`` not yet ``visited``,
        depth first, ``chain`` holding the call sites from ``submitted``."""
        scopes = _own_and_lambda_scopes(project, fn)
        locked = locked_lines(node for scope, _ in scopes for node in scope.nodes)
        fn_path = self._path_of(project, fn.qname)
        for write, label in shared_writes(scopes):
            line = getattr(write, "lineno", 0)
            if under_lock or line in locked:
                continue
            key = (
                fn_path,
                line,
                label,
                submission_module.path,
                submission.lineno,
            )
            if key in reported:
                continue
            reported.add(key)
            hops = " -> ".join(
                [
                    f"submitted {submitted.qname} "
                    f"({submission_module.path}:{submission.lineno})"
                ]
                + [
                    f"{site.callee} (called at "
                    f"{self._path_of(project, site.caller)}:{site.line})"
                    for site in chain
                ]
            )
            yield Violation(
                path=fn_path,
                line=int(line),
                col=int(getattr(write, "col_offset", 0)),
                rule_id=self.rule_id,
                message=(
                    f"write to shared {label!r} in {fn.qname} is "
                    "reachable from a backend submission without any "
                    f"lock held; chain: {hops}. Hold the owning lock "
                    "across the mutation or return results and fold "
                    "them on the caller"
                ),
            )
        if len(chain) >= _MAX_CHAIN_DEPTH:
            return
        for site in graph.callees(fn.qname):
            callee = project.functions.get(site.callee)
            if callee is None:
                continue
            next_lock = under_lock or site.line in locked
            state = (site.callee, next_lock)
            if state in visited:
                continue
            visited.add(state)
            yield from self._walk(
                project,
                graph,
                submission_module,
                submission,
                submitted,
                reported,
                visited,
                callee,
                (*chain, site),
                next_lock,
            )

    @staticmethod
    def _path_of(project: Project, qname: str) -> str:
        fn = project.functions.get(qname)
        if fn is None:
            return "<unknown>"
        module = project.modules.get(fn.module)
        return module.path if module is not None else fn.module


class ResourceSafetyRule(ProjectRule):
    """RPR008 — resources released on all paths; JobResult contract holds.

    Two checks over ``repro.*`` modules:

    **(a) handle lifetime** — a backend / executor pool / file handle
    acquired into a local (``backend = make_backend(...)``,
    ``pool = ThreadPoolExecutor(...)``, ``f = open(...)``) must be
    released on *every* path: either used as a context manager
    (``with ... as x:``) or closed in a ``try/finally``.  Handles that
    escape the function — returned, yielded, stored on ``self`` or in a
    container, passed to another call — transfer ownership and are not
    flagged (the new owner is checked wherever *it* lives).

    **(b) JobResult contract** — a function annotated to return
    ``JobResult`` is the failure boundary of the execution engine: it
    must not let detector exceptions escape.  Any ``*.detect(...)`` call
    in such a function must sit inside a ``try`` whose handlers catch
    ``Exception`` (so the failure becomes a ``"failed"`` JobResult
    instead of killing the worker).
    """

    rule_id = "RPR008"
    summary = (
        "acquired backend/pool/file handle not released on all paths, or "
        "a JobResult-returning function letting detect() exceptions escape"
    )

    #: Dotted targets whose call acquires a closable handle.
    _ACQUIRERS = frozenset(
        {
            "open",
            "repro.engine.backends.make_backend",
            "repro.engine.backends.ThreadPoolBackend",
            "repro.engine.backends.ProcessPoolBackend",
            "repro.engine.resilience.ResilientBackend",
            "concurrent.futures.ThreadPoolExecutor",
            "concurrent.futures.ProcessPoolExecutor",
            "multiprocessing.Pool",
        }
    )

    _RELEASE_METHODS = frozenset({"close", "shutdown", "terminate"})

    def check_project(
        self, project: Project, graph: CallGraph
    ) -> Iterator[Violation]:
        functions = _functions_by_module(project)
        for module_name in sorted(project.modules):
            if not _module_is_repro(module_name):
                continue
            module = project.modules[module_name]
            for fn in functions.get(module_name, []):
                if isinstance(fn.node, ast.Lambda):
                    continue
                yield from self._check_handles(project, module, fn)
                yield from self._check_job_result_contract(module, fn)

    # ---- (a) handle lifetime --------------------------------------------

    def _check_handles(
        self, project: Project, module: ModuleInfo, fn: FunctionInfo
    ) -> Iterator[Violation]:
        for stmt in fn.statements:
            if not (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and isinstance(stmt.value, ast.Call)
            ):
                continue
            label = self._acquisition(project, fn, stmt.value)
            if label is None:
                continue
            name = stmt.targets[0].id
            verdict = self._release_verdict(fn, name, stmt)
            if verdict is None:
                continue
            yield Violation(
                path=module.path,
                line=stmt.lineno,
                col=stmt.col_offset,
                rule_id=self.rule_id,
                message=(
                    f"handle {name!r} acquired from {label} is {verdict}; "
                    f"use `with ... as {name}:` or release it in a "
                    "try/finally so every path closes it"
                ),
            )

    def _acquisition(
        self, project: Project, fn: FunctionInfo, call: ast.Call
    ) -> str | None:
        dotted = dotted_name(call.func)
        if dotted is None:
            return None
        resolved = project.resolve(fn.module, dotted)
        if resolved is None:
            return dotted if dotted in self._ACQUIRERS else None
        if resolved.target in self._ACQUIRERS:
            return resolved.target
        return None

    def _release_verdict(
        self, fn: FunctionInfo, name: str, acquiring: ast.stmt
    ) -> str | None:
        """``None`` when the handle is safe; else a problem description."""
        release_nodes: list[ast.Call] = []
        finally_releases = False
        for node in fn.nodes:
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    expr = item.context_expr
                    if isinstance(expr, ast.Name) and expr.id == name:
                        return None  # context-managed
            elif isinstance(node, (ast.Yield, ast.YieldFrom)):
                if node.value is not None and _escapes_via(node.value, name):
                    return None  # yielded out: ownership transferred
            elif isinstance(node, ast.Return):
                if node.value is not None and _escapes_via(node.value, name):
                    return None  # returned: ownership transferred
            elif isinstance(node, ast.Assign) and node is not acquiring:
                if _escapes_via(node.value, name):
                    return None  # aliased or stored: tracked elsewhere
            elif isinstance(node, ast.Call):
                release = self._release_target(node, name)
                if release is not None:
                    release_nodes.append(node)
                    continue
                for arg in list(node.args) + [kw.value for kw in node.keywords]:
                    if _escapes_via(arg, name):
                        return None  # handed to another call
            elif isinstance(node, ast.Try):
                for final_stmt in node.finalbody:
                    for inner in ast.walk(final_stmt):
                        if isinstance(inner, ast.Call) and self._release_target(
                            inner, name
                        ):
                            finally_releases = True
        if finally_releases:
            return None
        if release_nodes:
            return (
                "released only on the fall-through path (an exception "
                "before the release leaks it)"
            )
        return "never released"

    def _release_target(self, call: ast.Call, name: str) -> str | None:
        func = call.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in self._RELEASE_METHODS
            and isinstance(func.value, ast.Name)
            and func.value.id == name
        ):
            return func.attr
        return None

    # ---- (b) the JobResult contract -------------------------------------

    def _check_job_result_contract(
        self, module: ModuleInfo, fn: FunctionInfo
    ) -> Iterator[Violation]:
        node = fn.node
        if isinstance(node, ast.Lambda) or node.returns is None:
            return
        try:
            annotation = ast.unparse(node.returns)
        except ValueError:  # pragma: no cover - malformed annotation
            return
        if "JobResult" not in annotation:
            return
        protected = self._protected_ranges(fn)
        for inner in fn.nodes:
            if not (
                isinstance(inner, ast.Call)
                and isinstance(inner.func, ast.Attribute)
                and inner.func.attr == "detect"
            ):
                continue
            line = inner.lineno
            if any(start <= line <= end for start, end in protected):
                continue
            yield Violation(
                path=module.path,
                line=line,
                col=inner.col_offset,
                rule_id=self.rule_id,
                message=(
                    f"{fn.qname} returns JobResult but calls detect() "
                    "outside a try/except Exception; a raised detector "
                    "error would escape the JobResult contract — catch it "
                    "and return a failed JobResult"
                ),
            )

    @staticmethod
    def _protected_ranges(fn: FunctionInfo) -> list[tuple[int, int]]:
        ranges: list[tuple[int, int]] = []
        for inner in fn.nodes:
            if not isinstance(inner, ast.Try):
                continue
            if not any(_catches_exception(h) for h in inner.handlers):
                continue
            if not inner.body:
                continue
            start = inner.body[0].lineno
            end = inner.body[-1].end_lineno or start
            ranges.append((start, end))
        return ranges


class ImportLayeringRule(ProjectRule):
    """RPR009 — the declared layer DAG is enforced against real imports.

    ``DEFAULT_LAYERS`` in ``repro/lint/project.py`` declares, per
    layer (= top-level package under ``repro``), which layers it may
    import; enforcement uses the transitive closure, intra-layer imports
    are always legal, and imports under ``if TYPE_CHECKING:`` are exempt
    (they are erased at runtime — the sanctioned way to annotate against
    a higher layer).  Function-level (lazy) imports are *not* exempt:
    they are real runtime dependencies.  Modules belonging to no
    declared layer are themselves flagged, so the DAG can never silently
    rot as packages are added.
    """

    rule_id = "RPR009"
    summary = (
        "runtime import violating the layer DAG declared in "
        "DEFAULT_LAYERS in repro/lint/project.py (TYPE_CHECKING imports "
        "exempt)"
    )

    def check_project(
        self, project: Project, graph: CallGraph
    ) -> Iterator[Violation]:
        layers = project.config.layers
        closure = _transitive_closure(layers)
        for module_name in sorted(project.modules):
            layer = project.layer_of(module_name)
            if layer is None:
                continue
            module = project.modules[module_name]
            if layer not in layers:
                yield Violation(
                    path=module.path,
                    line=1,
                    col=0,
                    rule_id=self.rule_id,
                    message=(
                        f"module {module_name} belongs to layer {layer!r}, "
                        "which is not declared in DEFAULT_LAYERS in "
                        "repro/lint/project.py; "
                        "add it to the DAG with its allowed imports"
                    ),
                )
                continue
            allowed = closure[layer]
            for edge in module.imports:
                if edge.type_checking:
                    continue
                target_layer = project.layer_of(edge.target)
                if target_layer is None or target_layer == layer:
                    continue
                if target_layer in allowed:
                    continue
                permitted = ", ".join(sorted(allowed)) or "nothing"
                yield Violation(
                    path=module.path,
                    line=edge.line,
                    col=edge.col,
                    rule_id=self.rule_id,
                    message=(
                        f"layer {layer!r} must not import layer "
                        f"{target_layer!r} ({module_name} imports "
                        f"{edge.target}); allowed: {permitted}. Move the "
                        "dependency down the DAG or gate it under "
                        "TYPE_CHECKING if only annotations need it"
                    ),
                )


def _transitive_closure(
    layers: Mapping[str, tuple[str, ...]]
) -> dict[str, frozenset[str]]:
    closure: dict[str, frozenset[str]] = {}
    for layer in layers:
        _reachable_layers(layers, closure, layer, frozenset())
    return closure


def _reachable_layers(
    layers: Mapping[str, tuple[str, ...]],
    closure: dict[str, frozenset[str]],
    layer: str,
    trail: frozenset[str],
) -> frozenset[str]:
    """The layers ``layer`` may import, directly or not, memoized in
    ``closure``; a layer on ``trail`` (a cycle) or undeclared reaches
    none."""
    cached = closure.get(layer)
    if cached is not None:
        return cached
    if layer in trail or layer not in layers:
        return frozenset()
    reachable: set[str] = set()
    for dep in layers[layer]:
        reachable.add(dep)
        reachable |= _reachable_layers(layers, closure, dep, trail | {layer})
    result = frozenset(reachable)
    closure[layer] = result
    return result


def _escapes_via(expr: ast.expr, name: str) -> bool:
    """True when the expression transfers ownership of ``name``.

    A direct reference (bare name, or nested in a container literal,
    conditional or starred expression) is an escape; the name appearing
    *inside* a call or attribute chain (``backend.run(j)``) is mere
    usage and is not.
    """
    if isinstance(expr, ast.Name):
        return expr.id == name
    if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
        return any(_escapes_via(el, name) for el in expr.elts)
    if isinstance(expr, ast.Dict):
        parts = [k for k in expr.keys if k is not None] + list(expr.values)
        return any(_escapes_via(el, name) for el in parts)
    if isinstance(expr, ast.IfExp):
        return _escapes_via(expr.body, name) or _escapes_via(expr.orelse, name)
    if isinstance(expr, ast.Starred):
        return _escapes_via(expr.value, name)
    if isinstance(expr, ast.NamedExpr):
        return _escapes_via(expr.value, name)
    if isinstance(expr, ast.Await):
        return _escapes_via(expr.value, name)
    return False


def _catches_exception(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    candidates: list[ast.expr] = (
        list(handler.type.elts)
        if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    for candidate in candidates:
        dotted = dotted_name(candidate) or ""
        if dotted.rsplit(".", 1)[-1] in ("Exception", "BaseException"):
            return True
    return False


class OrderedSinkRule(ProjectRule):
    """RPR010 — unordered sources must not reach ordered sinks unsorted.

    The reproducibility contract persists *sequences*: JSONL records,
    store keys, metrics snapshots, fused-detection lists.  A value whose
    iteration order the platform does not pin — ``set``/``frozenset``
    construction, dict views over an order-tainted dict, ``os.listdir``,
    ``Path.iterdir``/unsorted ``glob``, ``as_completed`` — must pass the
    sanctioned ``sorted(...)`` normalization (or an in-place ``.sort()``)
    before it is serialized (``json.dump(s)``), handed to a
    ``store``/``put``/``record`` call on a store-like receiver, joined
    into a key string, or written element-wise from an unordered loop.
    The ordering-provenance dataflow pass follows the value through
    assignments, calls, returns and ``self`` fields, so laundering
    across module boundaries is caught with full chain evidence.
    Deterministically built dicts stay clean (dicts are
    insertion-ordered); only views over already-unordered dicts taint.
    """

    rule_id = "RPR010"
    summary = (
        "iteration-order-unstable value (set/frozenset, os.listdir, "
        "Path.iterdir/glob, as_completed) reaches an ordered sink (JSON "
        "record, store key, joined string, element-wise write) without "
        "sorted() normalization"
    )

    def check_project(
        self, project: Project, graph: CallGraph
    ) -> Iterator[Violation]:
        for finding in analyze_ordering(project, graph):
            if finding.kind != "sink":
                continue
            flow = " -> ".join(finding.taint.chain)
            yield Violation(
                path=finding.path,
                line=finding.line,
                col=finding.col,
                rule_id=self.rule_id,
                message=(
                    f"{finding.detail} receives a value with unstable "
                    f"iteration order originating from "
                    f"{finding.taint.origin.describe()}; flow: {flow}. Normalize "
                    "with sorted(..., key=...) before the order is "
                    "persisted or keyed"
                ),
            )


class UnstableSerializationRule(ProjectRule):
    """RPR011 — persistence modules must serialize deterministically.

    Scoped to the *persistence modules* — files whose bytes cross a
    process boundary — selected by the path fragments of
    ``DEFAULT_PERSISTENCE`` in ``repro/lint/project.py``.  Three checks:

    * ``json.dump``/``json.dumps`` without ``sort_keys=True`` — dict
      key order is insertion order, which varies with code path, so
      persisted bytes (and their checksums) silently diverge;
    * ``id(...)``/``hash(...)`` anywhere — both are process-dependent
      (``PYTHONHASHSEED``), so any derived value breaks replay;
    * ``repr(...)`` used to *build a key* (subscript index or a
      ``store``/``put``/``record`` argument) — ``repr`` of containers
      leaks element order and of objects leaks addresses.  ``repr`` for
      diagnostics/float formatting is fine and not flagged (``str`` and
      ``repr`` of a float are the exact shortest round-trip in
      Python 3, so float formatting itself is deterministic).
    """

    rule_id = "RPR011"
    summary = (
        "unstable serialization in a persistence module: json.dump(s) "
        "without sort_keys=True, process-dependent id()/hash(), or a "
        "repr()-derived key"
    )

    _UNSTABLE_BUILTINS = frozenset({"id", "hash"})
    _KEY_CALL_METHODS = frozenset({"store", "put", "record"})

    def check_project(
        self, project: Project, graph: CallGraph
    ) -> Iterator[Violation]:
        fragments = project.config.persistence
        for module_name in sorted(project.modules):
            if not _module_is_repro(module_name):
                continue
            module = project.modules[module_name]
            if not is_persistence_path(module.path, fragments):
                continue
            yield from self._check_module(project, module)

    def _check_module(
        self, project: Project, module: ModuleInfo
    ) -> Iterator[Violation]:
        seen: set[tuple[int, int]] = set()

        def emit(node: ast.AST, message: str) -> Iterator[Violation]:
            pos = (node.lineno, node.col_offset)
            if pos in seen:
                return
            seen.add(pos)
            yield Violation(
                path=module.path,
                line=node.lineno,
                col=node.col_offset,
                rule_id=self.rule_id,
                message=message,
            )

        for node in ast.walk(module.context.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(project, module, node, emit)
            elif isinstance(node, ast.Subscript):
                unstable = _find_unstable_key_call(
                    node.slice, self._UNSTABLE_BUILTINS | {"repr"}, module
                )
                if unstable is not None:
                    found, name = unstable
                    yield from emit(
                        found,
                        f"{name}()-derived subscript key in persistence "
                        f"module {module.name}: the value varies per "
                        "process/run; build keys from stable fields instead",
                    )

    def _check_call(
        self,
        project: Project,
        module: ModuleInfo,
        call: ast.Call,
        emit: Callable[[ast.AST, str], Iterator[Violation]],
    ) -> Iterator[Violation]:
        dotted = dotted_name(call.func)
        resolved = (
            project.resolve(module.name, dotted) if dotted is not None else None
        )
        target = resolved.target if resolved is not None else None
        if target in ("json.dump", "json.dumps"):
            if not _json_call_sorts_keys(call):
                yield from emit(
                    call,
                    f"{target}() without sort_keys=True in persistence "
                    f"module {module.name}: dict key order is "
                    "insertion-dependent, so persisted bytes and their "
                    "checksums diverge across code paths; pass "
                    "sort_keys=True",
                )
            return
        func = call.func
        if (
            isinstance(func, ast.Name)
            and func.id in self._UNSTABLE_BUILTINS
            and func.id not in module.env
        ):
            yield from emit(
                call,
                f"{func.id}() in persistence module {module.name}: the "
                "result is process-dependent (PYTHONHASHSEED / object "
                "address) and must not reach persisted state; derive "
                "stable identifiers from record fields",
            )
            return
        if (
            isinstance(func, ast.Attribute)
            and func.attr in self._KEY_CALL_METHODS
        ):
            for arg in (*call.args, *(kw.value for kw in call.keywords)):
                unstable = _find_unstable_key_call(arg, {"repr"}, module)
                if unstable is not None:
                    yield from emit(
                        unstable[0],
                        f"repr()-derived key passed to .{func.attr}() in "
                        f"persistence module {module.name}: repr leaks "
                        "container order and object addresses; build keys "
                        "from stable scalar fields",
                    )


class ParallelReductionOrderRule(ProjectRule):
    """RPR012 — parallel reductions must consume in deterministic order.

    Float addition is not associative: merging worker results (metrics
    snapshots, AP sums, cost accumulators) in completion order or
    hash order yields run-dependent low bits, which the bit-for-bit
    backend-equivalence contract forbids.  This rule flags loops over
    order-unstable iterables (``as_completed``, sets, dict views over
    tainted dicts — same provenance pass as RPR010) whose body performs
    an order-sensitive fold: ``acc += f(item)``-style accumulation
    (constant increments are order-independent and exempt) or
    ``.merge()``/``.merged()`` snapshot merges.  Each finding carries
    the RPR007-style call-chain evidence from the unordered origin to
    the reduction.  Consuming ``as_completed`` into a list and sorting
    by key *before* folding is the sanctioned pattern and stays clean.
    """

    rule_id = "RPR012"
    summary = (
        "order-sensitive reduction (float accumulation or snapshot merge) "
        "consumes results in unordered (completion/hash) order instead of "
        "a deterministic key order"
    )

    def check_project(
        self, project: Project, graph: CallGraph
    ) -> Iterator[Violation]:
        for finding in analyze_ordering(project, graph):
            if finding.kind != "reduction":
                continue
            flow = " -> ".join(finding.taint.chain)
            yield Violation(
                path=finding.path,
                line=finding.line,
                col=finding.col,
                rule_id=self.rule_id,
                message=(
                    f"{finding.detail}; the iterable originates from "
                    f"{finding.taint.origin.describe()}; flow: {flow}. Collect "
                    "results and sort by a stable key before folding "
                    "(float addition is not associative)"
                ),
            )


def _json_call_sorts_keys(call: ast.Call) -> bool:
    """True when the call passes ``sort_keys=True`` (or ``**kwargs``,
    which the analysis cannot see through and trusts)."""
    for keyword in call.keywords:
        if keyword.arg is None:
            return True
        if keyword.arg == "sort_keys":
            value = keyword.value
            if isinstance(value, ast.Constant):
                return bool(value.value)
            return True  # computed flag: trust it
    return False


def _find_unstable_key_call(
    expr: ast.AST, names: set[str] | frozenset[str], module: ModuleInfo
) -> tuple[ast.Call, str] | None:
    """The first ``repr``/``id``/``hash`` builtin call under ``expr``."""
    for node in ast.walk(expr):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in names
            and node.func.id not in module.env
        ):
            return node, node.func.id
    return None


def _module_is_repro(name: str) -> bool:
    return name == "repro" or name.startswith("repro.")


class ProcessTransportRule(ProjectRule):
    """RPR013 — callables shipped to a process pool must survive pickling.

    A process backend pickles the submitted callable and executes it in
    a worker whose memory is disjoint from the parent's.  Three hazards,
    each reported with full evidence from the effect-summary analysis:

    * **unpicklable callables** — lambdas and local defs cannot be
      imported by worker processes; flagged with the closure-capture
      chain (every free variable and what the enclosing scope binds it
      to, locks and open handles called out by kind);
    * **state that cannot cross** — a bound method drags its whole
      instance across the boundary; when the class holds a lock, an
      open handle/pool, or a tracer/observability backend, the transfer
      is a pickle error or a silently diverging worker-side copy;
    * **worker-side module mutation** — a callable that transitively
      (through the call graph) mutates module/global state performs the
      write in the worker, where it dies with the process; the evidence
      chain names every call hop from the submission to the write.

    Thread backends share memory and are exempt; only dispatch sites
    provably targeting a process pool — receiver or local named/typed as
    a process pool, ``ProcessPoolExecutor``/``multiprocessing.Pool``
    construction, ``make_backend("process")`` — are checked.
    """

    rule_id = "RPR013"
    summary = (
        "callable submitted to a process pool is unpicklable "
        "(lambda/local def), drags a lock/open-handle/tracer-holding "
        "instance across the process boundary, or mutates module state "
        "that dies with the worker"
    )

    _UNSAFE_FIELD_KINDS = ("lock", "open handle", "tracer/backend")

    def check_project(
        self, project: Project, graph: CallGraph
    ) -> Iterator[Violation]:
        effects = analyze_effects(project, graph)
        reported: set[tuple[str, int, str, str]] = set()
        for qname in sorted(project.functions):
            fn = project.functions[qname]
            module = project.modules.get(fn.module)
            if module is None or isinstance(fn.node, ast.Lambda):
                continue
            process_locals = _process_pool_locals(project, graph, fn)
            for node in fn.nodes:
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in DISPATCH_METHODS
                    and _is_process_receiver(node.func.value, process_locals)
                ):
                    continue
                for arg, target in _submitted_callables(
                    project, fn.module, fn, node
                ):
                    yield from self._check_submission(
                        effects, module, node, arg, target, reported
                    )

    def _check_submission(
        self,
        effects: EffectsReport,
        module: ModuleInfo,
        dispatch: ast.Call,
        arg: ast.expr,
        target: FunctionInfo,
        reported: set[tuple[str, int, str, str]],
    ) -> Iterator[Violation]:
        summary = effects.summaries.get(target.qname, EffectSummary())

        def emit(problem: str, message: str) -> Iterator[Violation]:
            key = (module.path, dispatch.lineno, target.qname, problem)
            if key in reported:
                return
            reported.add(key)
            yield Violation(
                path=module.path,
                line=dispatch.lineno,
                col=dispatch.col_offset,
                rule_id=self.rule_id,
                message=message,
            )

        if target.parent is not None:
            kind = "lambda" if isinstance(target.node, ast.Lambda) else "local def"
            captures = "; ".join(
                effect.detail for _, effect in sorted(summary.captures.items())
            )
            note = f"; capture chain: {captures}" if captures else ""
            yield from emit(
                "unpicklable",
                (
                    f"{kind} {target.qname} is submitted to a process pool "
                    "but cannot be imported by worker processes (pickling "
                    f"fails){note}. Define it at module level and pass its "
                    "state as explicit picklable arguments"
                ),
            )
        elif target.is_method and target.class_qname is not None:
            kinds = effects.field_kinds.get(target.class_qname, {})
            hazardous = {
                attr: kind
                for attr, kind in sorted(kinds.items())
                if kind in self._UNSAFE_FIELD_KINDS
            }
            if hazardous and _is_bound_reference(arg):
                fields = ", ".join(
                    f"self.{attr} ({kind})" for attr, kind in hazardous.items()
                )
                yield from emit(
                    "bound-method",
                    (
                        f"bound method {target.qname} is submitted to a "
                        "process pool, dragging its instance across the "
                        f"process boundary; the instance holds {fields}. "
                        "Submit a module-level function and pass picklable "
                        "inputs instead"
                    ),
                )
        if summary.mutates_global:
            key, effect = sorted(summary.mutates_global.items())[0]
            chain = " -> ".join(effect.chain)
            yield from emit(
                "module-mutation",
                (
                    f"{target.qname} submitted to a process pool mutates "
                    f"module state {key} ({effect.describe()}); the write "
                    "happens in the worker process and is silently lost "
                    f"when it exits — chain: {chain}. Return results and "
                    "fold them in the parent instead"
                ),
            )


def _is_bound_reference(expr: ast.expr) -> bool:
    return (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id in ("self", "cls")
    )


#: Externals whose construction yields a process pool.
_PROCESS_POOL_TARGETS = frozenset(
    {
        "concurrent.futures.ProcessPoolExecutor",
        "multiprocessing.Pool",
        "multiprocessing.pool.Pool",
    }
)


def _process_pool_locals(
    project: Project, graph: CallGraph, fn: FunctionInfo
) -> frozenset[str]:
    """Local names provably bound to a process pool in this function."""
    names: set[str] = set()
    for name, class_qname in graph.local_types(fn.qname).items():
        if "process" in class_qname.rpartition(".")[2].lower():
            names.add(name)
    for stmt in fn.statements:
        if not (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and isinstance(stmt.value, ast.Call)
        ):
            continue
        call = stmt.value
        dotted = dotted_name(call.func)
        if dotted is None:
            continue
        resolved = project.resolve(fn.module, dotted)
        target = resolved.target if resolved is not None else dotted
        tail = target.rpartition(".")[2]
        if (
            target in _PROCESS_POOL_TARGETS
            or tail == "ProcessPoolExecutor"
            or (
                tail == "make_backend"
                and call.args
                and isinstance(call.args[0], ast.Constant)
                and call.args[0].value == "process"
            )
        ):
            names.add(stmt.targets[0].id)
    return frozenset(names)


def _is_process_receiver(
    receiver: ast.expr, process_locals: frozenset[str]
) -> bool:
    """True when a dispatch receiver is provably a *process* pool."""
    if isinstance(receiver, ast.Name) and receiver.id in process_locals:
        return True
    dotted = dotted_name(receiver)
    if dotted is None:
        return False
    return "process" in dotted.rpartition(".")[2].lower()


class CachePurityRule(ProjectRule):
    """RPR014 — cached/materialized values must be pure functions of inputs.

    The cross-query reuse story (the ``EvaluationStore`` and the
    :class:`~repro.query.matstore.MaterializedDetectionStore`) only
    holds if a cached value is a pure function of its cache key: replay
    the computation anywhere, any time, and the bytes match.  The purity
    taint of the effect fixpoint tracks values derived from
    process/host/clock/entropy state (``time.*``, ``uuid.*``,
    ``os.getpid``/``getenv``, ``random.*``, ``datetime.now``, ``id()``)
    and from instance fields mutated outside ``__init__`` (hidden
    mutable state), through assignments, calls, returns and containers.
    A tainted value reaching a ``.put()``/``.store()`` call on a
    store/cache/tier receiver is flagged with the full flow chain.

    Sanctioned seams stay clean: ``repro.utils.rng.derive_rng`` /
    ``derive_seed`` / ``spawn_seeds`` (``DEFAULT_SANCTIONED_SEAMS`` in
    ``repro/lint/project.py``), and timing keywords
    (``compute_ms`` and friends ending ``_ms``), which are measurement
    metadata rather than cached values.
    """

    rule_id = "RPR014"
    summary = (
        "value flowing into EvaluationStore.put / materialized-store "
        "persistence derives from process/host/clock state or hidden "
        "mutable fields instead of the function's parameters and "
        "sanctioned seams"
    )

    def check_project(
        self, project: Project, graph: CallGraph
    ) -> Iterator[Violation]:
        effects = analyze_effects(project, graph)
        for finding in effects.purity_findings:
            chain = " -> ".join(finding.taint.chain)
            yield Violation(
                path=finding.path,
                line=finding.line,
                col=finding.col,
                rule_id=self.rule_id,
                message=(
                    f"value reaching {finding.detail} in {finding.entry} is "
                    "not a pure function of its parameters: it derives "
                    f"from {finding.taint.origin.describe()}; flow: {chain}. "
                    "Cached results must derive only from parameters and "
                    "sanctioned seams (derive_rng, injected timers) — pass "
                    "the value in explicitly or route timing through a "
                    "*_ms keyword"
                ),
            )


class UnboundedGrowthRule(ProjectRule):
    """RPR015 — hot-loop container growth needs a bounding operation.

    A long-running service survives millions of frames only if every
    container on the hot path is bounded.  The effect analysis records
    every *growth site* — ``append``/``add``/``update``/``extend``/
    subscript-store/``+=`` on an instance field or module-level
    container — and every piece of *bounding evidence* anywhere in the
    project: bounded construction (``deque(maxlen=...)``, LRU/bounded
    cache classes), eviction calls (``pop``/``clear``/``evict``/
    ``prune``/..., ``DEFAULT_BOUND_METHODS`` in
    ``repro/lint/project.py``), ``del c[...]``, or wholesale reassignment
    outside ``__init__``.  A growth site with no bounding evidence for
    its container is flagged when it executes repeatedly: the growth
    statement sits inside a loop, or the caller-graph walk finds a call
    site inside a loop that transitively reaches the growing function
    (the interprocedural part RPR003's declaration check cannot see).
    Local variables and parameters are never flagged — they die with the
    frame; only ``self`` fields and module state accumulate.

    Two scoping decisions keep this a *service-path* rule: the linter's
    own package (``repro.lint``) is exempt — it is a run-to-completion
    batch tool whose containers die with each invocation — and loop
    evidence is only accepted from ``repro.*`` callers, so a ``for``
    loop in a test or benchmark does not make product code "hot".
    """

    rule_id = "RPR015"
    summary = (
        "instance/module container grows inside (or transitively under) "
        "a loop with no bounding eviction/clear/reassignment anywhere in "
        "the project — a leak for a long-running service"
    )

    def check_project(
        self, project: Project, graph: CallGraph
    ) -> Iterator[Violation]:
        effects = analyze_effects(project, graph)
        for site in effects.growth_sites:
            if not _module_is_repro(site.module):
                continue
            if site.module.startswith("repro.lint"):
                continue
            if site.container in effects.bounded:
                continue
            evidence = self._loop_evidence(project, graph, effects, site)
            if evidence is None:
                continue
            yield Violation(
                path=site.path,
                line=site.line,
                col=site.col,
                rule_id=self.rule_id,
                message=(
                    f"container {site.container} grows via {site.op} in "
                    f"{site.qname} with no bounding operation (eviction/"
                    "clear/reassignment) anywhere in the project; "
                    f"{evidence}. A long-running service leaks here — "
                    "bound it (deque(maxlen=...), LRU eviction) or drain "
                    "it per run"
                ),
            )

    @staticmethod
    def _loop_evidence(
        project: Project,
        graph: CallGraph,
        effects: EffectsReport,
        site: GrowthSite,
    ) -> str | None:
        """Why this growth executes repeatedly, or ``None`` if it cannot
        be shown to."""
        if site.in_loop:
            return (
                "the growth statement itself runs inside a loop "
                f"({site.path}:{site.line})"
            )
        queue: deque[tuple[str, tuple[str, ...]]] = deque([(site.qname, ())])
        seen = {site.qname}
        while queue:
            qname, chain = queue.popleft()
            if len(chain) >= _MAX_CHAIN_DEPTH:
                continue
            for call_site in sorted(
                graph.callers(qname), key=lambda s: (s.caller, s.line)
            ):
                caller_fn = project.functions.get(call_site.caller)
                if caller_fn is None or not _module_is_repro(caller_fn.module):
                    # A loop in a test/benchmark does not make product
                    # code hot; only service-path callers count.
                    continue
                caller_path = InterprocLocksetRule._path_of(
                    project, call_site.caller
                )
                hop = (
                    f"{qname} called from {call_site.caller} "
                    f"({caller_path}:{call_site.line})"
                )
                loop_lines = effects.loop_lines.get(call_site.caller)
                if loop_lines and call_site.line in loop_lines:
                    steps = " -> ".join((*chain, hop))
                    return f"reached from a loop: {steps}"
                if call_site.caller not in seen:
                    seen.add(call_site.caller)
                    queue.append((call_site.caller, (*chain, hop)))
        return None


#: Every shipped whole-program rule, in ID order.
ALL_PROJECT_RULES: tuple[ProjectRule, ...] = (
    SeedFlowTaintRule(),
    InterprocLocksetRule(),
    ResourceSafetyRule(),
    ImportLayeringRule(),
    OrderedSinkRule(),
    UnstableSerializationRule(),
    ParallelReductionOrderRule(),
    ProcessTransportRule(),
    CachePurityRule(),
    UnboundedGrowthRule(),
)


def project_rule_ids() -> list[str]:
    """The shipped whole-program rule IDs, in order."""
    return [rule.rule_id for rule in ALL_PROJECT_RULES]
