"""Forward taint analysis: one walker, three lattices.

Three families of whole-program rules ask the same question of
different values — "can a value with property P reach a sink that P
breaks?" — so they share one context-insensitive interprocedural walker
over the :class:`~repro.lint.project.Project` call graph.  The walker
(:class:`_Walker`) owns everything the three have in common:

* the statement walk of each function, with a local environment of
  tainted names fed by assignments (plain, annotated and augmented);
* argument binding at resolved call sites (methods included) into
  per-callee parameter summaries, return-value summaries and ``self``
  field summaries, all first-wins, iterated to a fixpoint (first-wins
  growth is what guarantees termination on recursive call cycles);
* the chain hops each :class:`Taint` records (``passed to``,
  ``returned by``, ...), so every finding names its origin and the full
  path it travelled;
* the expression forms every lattice propagates through (names,
  ``self`` fields, calls, conditionals, boolean and binary operators,
  walrus and starred expressions) and call resolution.

Each lattice supplies only its sources, sanitizers, sinks and extra
expression forms:

* **seed flow** (RPR006) — sources are calls to ``numpy.random``
  / stdlib ``random`` generator constructors whose seed is missing,
  entropy-derived (``Generator(PCG64())``) or a literal inside
  ``repro.*``; ``repro.utils.rng`` is exempt and its seams are clean.
  The sink is a scoped-layer (core/simulation/engine/ensembling)
  function receiving the value from *another* module: same-module
  origins are RPR001's (it flags the construction itself).
  See :func:`analyze_rng_taint`.
* **iteration order** (RPR010/RPR012) — sources are values whose order
  the platform does not pin (``set``/``frozenset``, ``os.listdir``,
  ``Path.iterdir``, unsorted ``glob``, ``as_completed``); ``sorted()``
  or an in-place ``.sort()`` sanitizes.  Sinks are ordered outputs (JSON
  serialization, store-like ``put``/``store``/``record`` calls, joined
  keys, element-wise writes) and order-sensitive folds inside loops over
  an unordered iterable.  See :func:`analyze_ordering`.
* **purity** (RPR014) — sources are process/host/clock/entropy reads
  and reads of ``self`` fields mutated outside ``__init__``; the
  sanctioned seams (``DEFAULT_SANCTIONED_SEAMS``) are clean.  Sinks
  are ``put``/``store`` calls on cache/store receivers.  The
  per-function **effect summaries** behind RPR013 and RPR015
  (mutations, io, captures, container growth and bounding evidence)
  ride the same fixpoint.
  See :func:`analyze_effects`.
"""

from __future__ import annotations

import ast
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

from repro.lint.base import dotted_name, self_attr
from repro.lint.callgraph import CallGraph, resolve_call_target
from repro.lint.project import (
    DEFAULT_BOUND_METHODS,
    DEFAULT_SANCTIONED_SEAMS,
    FunctionInfo,
    Project,
)

__all__ = [
    "GROWTH_METHODS",
    "IMPURE_CALLS",
    "IMPURE_PREFIXES",
    "RNG_CONSTRUCTORS",
    "SANCTIONED_RNG",
    "SANCTIONED_SEED",
    "SCOPED_SEGMENTS",
    "UNORDERED_CALLS",
    "UNORDERED_METHODS",
    "Effect",
    "EffectSummary",
    "EffectsReport",
    "Finding",
    "GrowthSite",
    "Origin",
    "Taint",
    "analyze_effects",
    "analyze_ordering",
    "analyze_rng_taint",
]

_MAX_CHAIN_HOPS = 10


@dataclass(frozen=True)
class Origin:
    """Where a tracked value was born: the construct and its site."""

    module: str
    path: str
    line: int
    construct: str

    def describe(self) -> str:
        return f"{self.construct} at {self.path}:{self.line}"


@dataclass(frozen=True)
class Taint:
    """A tracked value: its origin plus the hops it travelled."""

    origin: Origin
    chain: tuple[str, ...]

    def extend(self, hop: str) -> Taint:
        if len(self.chain) >= _MAX_CHAIN_HOPS:
            return self
        return Taint(origin=self.origin, chain=(*self.chain, hop))


@dataclass(frozen=True)
class Finding:
    """A tracked value reaching a lattice's sink.

    ``kind`` is ``"seed"`` (RPR006), ``"sink"`` (RPR010: the value's
    content order is persisted or keyed), ``"reduction"`` (RPR012:
    results are consumed in unordered sequence by an order-sensitive
    fold) or ``"impure"`` (RPR014).  ``entry`` is the function the value
    reached; ``detail`` names the sink (empty for seed flow).
    """

    kind: str
    entry: str
    path: str
    line: int
    col: int
    taint: Taint
    detail: str = ""


class _Walker:
    """The statement walk and summaries shared by the three lattices.

    Subclasses override the hooks below; the defaults propagate nothing
    extra and report nothing.
    """

    #: Modules whose functions are never analyzed.
    exempt: frozenset[str] = frozenset()

    def __init__(self, project: Project, graph: CallGraph) -> None:
        self.project = project
        self.graph = graph
        self._params: dict[str, dict[str, Taint]] = {}
        self._returns: dict[str, Taint] = {}
        self._fields: dict[str, dict[str, Taint]] = {}
        self._findings: dict[tuple[object, ...], Finding] = {}

    def run(self) -> list[Finding]:
        """Iterate the transfer to a fixpoint; findings in path/line order.

        Seeds every function (sorted, for deterministic summary growth)
        and re-queues the dependents each transfer reports.
        """
        functions = self.project.functions
        pending: deque[str] = deque(sorted(functions))
        queued = set(pending)
        while pending:
            qname = pending.popleft()
            queued.discard(qname)
            fn = functions.get(qname)
            if fn is None or fn.module in self.exempt:
                continue
            for dependent in self._analyze(fn):
                if dependent not in queued and dependent in functions:
                    queued.add(dependent)
                    pending.append(dependent)
        return sorted(
            self._findings.values(),
            key=lambda f: (f.path, f.line, f.col, f.kind, f.detail, f.entry),
        )

    # ---- per-function transfer ------------------------------------------

    def _analyze(self, fn: FunctionInfo) -> list[str]:
        """Analyze one function; returns qnames needing (re)analysis."""
        touched: list[str] = []
        env: dict[str, Taint] = dict(self._params.get(fn.qname, {}))
        path = self._path(fn)
        scoped = self._scoped(fn)
        for stmt in fn.statements:
            for node in fn.expressions[stmt]:
                if isinstance(node, ast.Call):
                    touched.extend(self._bind_args(fn, node, env, path))
                    self._visit_call(fn, node, env, path, scoped)
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                taint = self._expr(fn, stmt.value, env, path)
                target = stmt.targets[0]
                if isinstance(target, ast.Name):
                    _assign(env, target.id, taint)
                elif taint is not None:
                    attr = self_attr(target)
                    if attr is not None and fn.class_qname is not None:
                        touched.extend(
                            self._store_field(fn.class_qname, attr, taint)
                        )
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                if isinstance(stmt.target, ast.Name):
                    _assign(env, stmt.target.id, self._expr(fn, stmt.value, env, path))
            elif isinstance(stmt, ast.AugAssign) and isinstance(stmt.target, ast.Name):
                taint = self._expr(fn, stmt.value, env, path)
                if taint is not None:
                    env[stmt.target.id] = taint
            elif isinstance(stmt, ast.Return) and stmt.value is not None:
                taint = self._expr(fn, stmt.value, env, path)
                if taint is not None and fn.qname not in self._returns:
                    self._returns[fn.qname] = taint.extend(
                        f"returned by {fn.qname} ({path}:{stmt.lineno})"
                    )
                    touched.extend(
                        site.caller for site in self.graph.callers(fn.qname)
                    )
            else:
                self._visit_statement(fn, stmt, env, path, scoped)
        return touched

    def _bind_args(
        self,
        fn: FunctionInfo,
        call: ast.Call,
        env: dict[str, Taint],
        path: str,
    ) -> list[str]:
        """Bind tainted arguments to a project callee's parameters."""
        callee_q = resolve_call_target(self.project, fn, call)
        if callee_q is None:
            return []
        callee = self.project.functions.get(callee_q)
        if callee is None:
            return []
        offset = 1 if callee.is_method else 0
        bound: list[tuple[str, Taint]] = []
        for index, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred):
                continue
            slot = index + offset
            if slot >= len(callee.params):
                break
            taint = self._expr(fn, arg, env, path)
            if taint is not None:
                bound.append((callee.params[slot], taint))
        for keyword in call.keywords:
            if keyword.arg is None or keyword.arg not in callee.params:
                continue
            taint = self._expr(fn, keyword.value, env, path)
            if taint is not None:
                bound.append((keyword.arg, taint))
        if not bound:
            return []
        touched: list[str] = []
        hop = f"passed to {callee_q} ({path}:{call.lineno})"
        params = self._params.setdefault(callee_q, {})
        for name, taint in bound:
            carried = taint.extend(hop)
            if name not in params:
                params[name] = carried
                touched.append(callee_q)
            self._entered(fn, callee, call, path, carried)
        return touched

    def _store_field(self, class_qname: str, attr: str, taint: Taint) -> list[str]:
        """Record ``self.<attr> = tainted``; the class's methods re-run."""
        fields = self._fields.setdefault(class_qname, {})
        if attr in fields:
            return []
        fields[attr] = taint
        info = self.project.classes.get(class_qname)
        return sorted(info.methods.values()) if info is not None else []

    # ---- expressions ----------------------------------------------------

    def _expr(
        self,
        fn: FunctionInfo,
        expr: ast.expr,
        env: dict[str, Taint],
        path: str,
    ) -> Taint | None:
        if isinstance(expr, ast.Name):
            return env.get(expr.id)
        if isinstance(expr, ast.Attribute):
            attr = self_attr(expr)
            if attr is not None and fn.class_qname is not None:
                return self._field(fn, fn.class_qname, attr, expr, path)
            return None
        if isinstance(expr, ast.Call):
            return self._call(fn, expr, env, path)
        if isinstance(expr, ast.IfExp):
            return self._first(fn, (expr.body, expr.orelse), env, path)
        if isinstance(expr, ast.BoolOp):
            return self._first(fn, expr.values, env, path)
        if isinstance(expr, ast.BinOp):
            return self._first(fn, (expr.left, expr.right), env, path)
        if isinstance(expr, (ast.NamedExpr, ast.Starred)):
            return self._expr(fn, expr.value, env, path)
        return self._expr_form(fn, expr, env, path)

    def _first(
        self,
        fn: FunctionInfo,
        exprs: Sequence[ast.expr],
        env: dict[str, Taint],
        path: str,
    ) -> Taint | None:
        """The taint of the first tainted expression, if any."""
        for expr in exprs:
            taint = self._expr(fn, expr, env, path)
            if taint is not None:
                return taint
        return None

    def _call(
        self,
        fn: FunctionInfo,
        call: ast.Call,
        env: dict[str, Taint],
        path: str,
    ) -> Taint | None:
        """A project callee yields its return summary, else the source."""
        callee = resolve_call_target(self.project, fn, call)
        if callee is not None:
            return self._returns.get(callee)
        return self._source(fn, call, env, path)

    def _origin(
        self,
        fn: FunctionInfo,
        node: ast.expr,
        path: str,
        construct: str,
        verb: str = "constructed",
    ) -> Taint:
        origin = Origin(module=fn.module, path=path, line=node.lineno, construct=construct)
        return Taint(
            origin=origin, chain=(f"{verb} in {fn.qname} ({path}:{node.lineno})",)
        )

    # ---- helpers --------------------------------------------------------

    def _path(self, fn: FunctionInfo) -> str:
        module = self.project.modules.get(fn.module)
        return module.path if module is not None else fn.module

    def _is_builtin(self, fn: FunctionInfo, name: str) -> bool:
        """True unless the module rebinds ``name`` (import or def)."""
        module = self.project.modules.get(fn.module)
        return module is None or name not in module.env

    def _external_target(self, fn: FunctionInfo, call: ast.Call) -> str | None:
        """The dotted target of a call resolving outside the project, or
        to a project function (a sanctioned seam may be one)."""
        dotted = dotted_name(call.func)
        if dotted is None:
            return None
        resolved = self.project.resolve(fn.module, dotted)
        if resolved is None or resolved.kind not in ("external", "function"):
            return None
        return resolved.target

    def _report(
        self,
        kind: str,
        entry: str,
        path: str,
        node: ast.stmt | ast.expr,
        taint: Taint,
        detail: str = "",
    ) -> None:
        finding = Finding(
            kind=kind,
            entry=entry,
            path=path,
            line=node.lineno,
            col=node.col_offset,
            taint=taint,
            detail=detail,
        )
        self._findings.setdefault(self._key(finding), finding)

    # ---- lattice hooks --------------------------------------------------

    def _scoped(self, fn: FunctionInfo) -> bool:
        """Whether sinks are checked inside ``fn``."""
        return fn.module == "repro" or fn.module.startswith("repro.")

    def _key(self, finding: Finding) -> tuple[object, ...]:
        """De-duplication key: the first finding per key is kept."""
        raise NotImplementedError

    def _source(
        self,
        fn: FunctionInfo,
        call: ast.Call,
        env: dict[str, Taint],
        path: str,
    ) -> Taint | None:
        """Taint of a call that resolves to no project function."""
        return None

    def _expr_form(
        self,
        fn: FunctionInfo,
        expr: ast.expr,
        env: dict[str, Taint],
        path: str,
    ) -> Taint | None:
        """Taint of an expression form the walker does not propagate."""
        return None

    def _field(
        self, fn: FunctionInfo, class_qname: str, attr: str, expr: ast.expr, path: str
    ) -> Taint | None:
        """Taint of a ``self.<attr>`` read."""
        return self._fields.get(class_qname, {}).get(attr)

    def _entered(
        self,
        fn: FunctionInfo,
        callee: FunctionInfo,
        call: ast.Call,
        path: str,
        taint: Taint,
    ) -> None:
        """A tainted argument was bound to one of ``callee``'s parameters."""

    def _visit_call(
        self,
        fn: FunctionInfo,
        call: ast.Call,
        env: dict[str, Taint],
        path: str,
        scoped: bool,
    ) -> None:
        """Every call node of the function, in statement order."""

    def _visit_statement(
        self,
        fn: FunctionInfo,
        stmt: ast.stmt,
        env: dict[str, Taint],
        path: str,
        scoped: bool,
    ) -> None:
        """Statements other than assignments and returns."""


def _assign(env: dict[str, Taint], name: str, taint: Taint | None) -> None:
    if taint is not None:
        env[name] = taint
    else:
        env.pop(name, None)


# ---------------------------------------------------------------------------
# Seed flow (RPR006)
# ---------------------------------------------------------------------------

#: Package segments forming the scoped layers RPR006 protects.
SCOPED_SEGMENTS = frozenset({"core", "simulation", "engine", "ensembling"})

#: External constructors that mint a random stream.
RNG_CONSTRUCTORS = frozenset(
    {
        "numpy.random.default_rng",
        "numpy.random.RandomState",
        "numpy.random.Generator",
        "random.Random",
    }
)

#: The sanctioned generator seam — results are always clean.
SANCTIONED_RNG = frozenset(
    {"repro.utils.rng.derive_rng", "repro.utils.rng.spawn_seeds"}
)

#: Sanctioned seed derivation — using these as a seed argument is clean.
SANCTIONED_SEED = frozenset({"repro.utils.rng.derive_seed"})


def module_is_scoped(module_name: str) -> bool:
    """True for modules in the protected layers (repro.core.*, ...)."""
    parts = module_name.split(".")
    return len(parts) >= 2 and parts[0] == "repro" and parts[1] in SCOPED_SEGMENTS


def analyze_rng_taint(project: Project, graph: CallGraph) -> list[Finding]:
    """Run the seed-flow fixpoint; returns findings in path/line order."""
    return _SeedFlow(project, graph).run()


class _SeedFlow(_Walker):
    """Ambient RNGs reaching the scoped layers from another module."""

    #: The seam's own internals construct generators by design.
    exempt = frozenset({"repro.utils.rng"})

    def _scoped(self, fn: FunctionInfo) -> bool:
        return module_is_scoped(fn.module)

    def _key(self, finding: Finding) -> tuple[object, ...]:
        origin = finding.taint.origin
        return (finding.entry, origin.path, origin.line)

    def _source(
        self,
        fn: FunctionInfo,
        call: ast.Call,
        env: dict[str, Taint],
        path: str,
    ) -> Taint | None:
        external = self._external_target(fn, call)
        if external not in RNG_CONSTRUCTORS:
            return None
        reason = self._seed_problem(fn, _seed_argument(call))
        if reason is None:
            return None
        return self._origin(fn, call, path, f"{external}() ({reason})")

    def _seed_problem(self, fn: FunctionInfo, seed: ast.expr | None) -> str | None:
        """Why a constructor seeded with ``seed`` is ambient; ``None`` when
        clean."""
        if seed is None:
            return "no seed argument"
        if isinstance(seed, ast.Constant):
            if fn.module.startswith("repro."):
                return f"hardcoded seed {seed.value!r}"
            return None
        if isinstance(seed, ast.Call):
            target = self._external_target(fn, seed)
            if target is not None:
                if target in SANCTIONED_SEED or target in SANCTIONED_RNG:
                    return None
                if target.startswith("repro."):
                    return None
                # External constructor (e.g. PCG64): clean iff *its*
                # seed is.
                inner = _seed_argument(seed)
                if inner is None:
                    return f"entropy-seeded {target}()"
                return self._seed_problem(fn, inner)
            if resolve_call_target(self.project, fn, seed) is not None:
                return None
            inner = _seed_argument(seed)
            if inner is not None:
                return self._seed_problem(fn, inner)
            return None
        # Names, attributes, arithmetic: an explicitly threaded seed.
        return None

    def _entered(
        self,
        fn: FunctionInfo,
        callee: FunctionInfo,
        call: ast.Call,
        path: str,
        taint: Taint,
    ) -> None:
        if module_is_scoped(callee.module) and taint.origin.module != callee.module:
            self._report("seed", callee.qname, path, call, taint)

    def _visit_call(
        self,
        fn: FunctionInfo,
        call: ast.Call,
        env: dict[str, Taint],
        path: str,
        scoped: bool,
    ) -> None:
        """A tainted return value materializing inside a scoped function."""
        if not scoped:
            return
        callee = resolve_call_target(self.project, fn, call)
        if callee is None:
            return
        taint = self._returns.get(callee)
        if taint is None or taint.origin.module == fn.module:
            return
        hop = f"received in {fn.qname} ({path}:{call.lineno})"
        self._report("seed", fn.qname, path, call, taint.extend(hop))


def _seed_argument(call: ast.Call) -> ast.expr | None:
    if call.args:
        first = call.args[0]
        return None if isinstance(first, ast.Starred) else first
    for keyword in call.keywords:
        if keyword.arg == "seed":
            return keyword.value
    return None


# ---------------------------------------------------------------------------
# Iteration order (RPR010 / RPR012)
# ---------------------------------------------------------------------------

#: External callables whose iteration order the platform does not pin.
UNORDERED_CALLS: dict[str, str] = {
    "os.listdir": "os.listdir() (directory order)",
    "os.scandir": "os.scandir() (directory order)",
    "glob.glob": "glob.glob() (directory order)",
    "glob.iglob": "glob.iglob() (directory order)",
    "concurrent.futures.as_completed": "as_completed() (completion order)",
}

#: Method names that produce unordered iterables regardless of receiver
#: type resolution (``Path.iterdir`` et al. are attribute lookups on
#: values whose type the analysis usually cannot prove).
UNORDERED_METHODS: dict[str, str] = {
    "iterdir": "Path.iterdir() (directory order)",
    "glob": ".glob() (directory order)",
    "rglob": ".rglob() (directory order)",
    "scandir": ".scandir() (directory order)",
    "as_completed": ".as_completed() (completion order)",
}

#: Builtins minting hash-ordered collections.
_SET_CONSTRUCTORS = frozenset({"set", "frozenset"})

#: Builtins whose *result* is order-insensitive even over an unordered
#: argument: ``sorted`` (the sanctioned normalization; an in-place
#: ``.sort()`` is handled at the statement level) and reductions with
#: commutative exact semantics.  ``sum`` over floats is order-sensitive
#: in principle; it is treated as clean here because element types are
#: unknowable statically — the documented RPR012 trade-off.
_ORDER_INSENSITIVE = frozenset({"len", "min", "max", "any", "all", "sum", "sorted"})

#: Builtins that preserve their argument's iteration order.
_ORDER_PRESERVING = frozenset(
    {"list", "tuple", "iter", "reversed", "enumerate", "filter", "map", "zip"}
)

#: Receiver methods whose result inherits the receiver's order: set
#: methods returning another hash-ordered set, and dict views, which are
#: unordered only when the *dict itself* has order-tainted insertion
#: order (building one deterministically yields deterministic views).
_RECEIVER_ORDER_METHODS = frozenset(
    {
        "copy",
        "union",
        "intersection",
        "difference",
        "symmetric_difference",
        "keys",
        "values",
        "items",
    }
)

#: Ordered-sink method names on store-like receivers.
_SINK_METHODS = frozenset({"store", "put", "record"})

#: Receiver-name fragments marking persistence/store objects.
_SINK_RECEIVER_HINTS = ("store", "writer", "log", "sink", "events")

#: Calls inside a loop over an unordered iterable that persist each
#: element — the per-iteration flavour of an ordered sink.
_LOOP_WRITE_METHODS = frozenset({"write", "writelines"}) | _SINK_METHODS

#: Snapshot/merge reductions whose result depends on consumption order.
_MERGE_METHODS = frozenset({"merge", "merged"})


def analyze_ordering(project: Project, graph: CallGraph) -> list[Finding]:
    """Run the iteration-order fixpoint (memoized per project)."""
    if project.ordering_cache is None:
        project.ordering_cache = _Ordering(project, graph).run()
    return project.ordering_cache


class _Ordering(_Walker):
    """Order-unstable values reaching ordered sinks or folds."""

    def _key(self, finding: Finding) -> tuple[object, ...]:
        return (finding.kind, finding.path, finding.line, finding.detail)

    def _expr_form(
        self,
        fn: FunctionInfo,
        expr: ast.expr,
        env: dict[str, Taint],
        path: str,
    ) -> Taint | None:
        if isinstance(expr, ast.Set):
            return self._origin(fn, expr, path, "set literal")
        if isinstance(expr, ast.SetComp):
            return self._origin(fn, expr, path, "set comprehension")
        if isinstance(expr, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
            taint = self._first(fn, [comp.iter for comp in expr.generators], env, path)
            if taint is None:
                return None
            return taint.extend(
                f"comprehended over in {fn.qname} ({path}:{expr.lineno})"
            )
        if isinstance(expr, ast.Subscript) and isinstance(expr.slice, ast.Slice):
            # Slicing preserves (unstable) order; single-element access
            # extracts a value whose own order is a separate question.
            return self._expr(fn, expr.value, env, path)
        return None

    def _source(
        self,
        fn: FunctionInfo,
        call: ast.Call,
        env: dict[str, Taint],
        path: str,
    ) -> Taint | None:
        func = call.func
        if isinstance(func, ast.Name):
            name = func.id
            if name in _ORDER_INSENSITIVE:
                return None
            if name in _SET_CONSTRUCTORS and self._is_builtin(fn, name):
                return self._origin(fn, call, path, f"{name}()")
            if name in _ORDER_PRESERVING and self._is_builtin(fn, name):
                return self._first(fn, call.args, env, path)
        external = self._external_target(fn, call)
        if external is not None and external in UNORDERED_CALLS:
            return self._origin(fn, call, path, UNORDERED_CALLS[external])
        if isinstance(func, ast.Attribute):
            if func.attr in _RECEIVER_ORDER_METHODS:
                return self._expr(fn, func.value, env, path)
            if func.attr in UNORDERED_METHODS and external is None:
                return self._origin(fn, call, path, UNORDERED_METHODS[func.attr])
        return None

    def _visit_call(
        self,
        fn: FunctionInfo,
        call: ast.Call,
        env: dict[str, Taint],
        path: str,
        scoped: bool,
    ) -> None:
        if not scoped:
            return
        external = self._external_target(fn, call)
        if external in ("json.dump", "json.dumps"):
            if call.args:
                taint = self._expr(fn, call.args[0], env, path)
                if taint is not None:
                    self._report(
                        "sink",
                        fn.qname,
                        path,
                        call,
                        taint,
                        f"{external.rpartition('.')[2]}() serialization",
                    )
            return
        func = call.func
        if not isinstance(func, ast.Attribute):
            return
        if func.attr in _SINK_METHODS and _receiver_is_sink(func.value):
            args = [*call.args, *(kw.value for kw in call.keywords)]
            detail = f".{func.attr}() on a store-like receiver"
        elif func.attr == "join":
            args, detail = call.args, ".join() building an ordered string/key"
        elif func.attr == "writelines":
            args, detail = call.args, ".writelines() persisting an ordered sequence"
        else:
            return
        taint = self._first(fn, args, env, path)
        if taint is not None:
            self._report("sink", fn.qname, path, call, taint, detail)

    def _visit_statement(
        self,
        fn: FunctionInfo,
        stmt: ast.stmt,
        env: dict[str, Taint],
        path: str,
        scoped: bool,
    ) -> None:
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
            self._apply_mutation(fn, stmt.value, env, path)
        elif isinstance(stmt, ast.For):
            self._visit_loop(fn, stmt, env, path, scoped)

    def _apply_mutation(
        self,
        fn: FunctionInfo,
        call: ast.Call,
        env: dict[str, Taint],
        path: str,
    ) -> None:
        """Statement-level mutations: ``x.sort()`` launders ``x``;
        ``x.extend(unordered)`` / ``x.update(unordered)`` taint ``x``."""
        func = call.func
        if not (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)):
            return
        name = func.value.id
        if func.attr == "sort":
            env.pop(name, None)
        elif func.attr in ("extend", "update"):
            taint = self._first(fn, call.args, env, path)
            if taint is not None:
                env[name] = taint.extend(
                    f"{func.attr}ed into {name!r} ({path}:{call.lineno})"
                )

    def _visit_loop(
        self,
        fn: FunctionInfo,
        stmt: ast.For,
        env: dict[str, Taint],
        path: str,
        scoped: bool,
    ) -> None:
        """A ``for`` over an unordered iterable: everything *collected*
        during the loop inherits the iteration order (RPR010 side), and
        order-sensitive folds in the body are RPR012 reductions."""
        taint = self._expr(fn, stmt.iter, env, path)
        if taint is None:
            return
        loop_taint = taint.extend(f"iterated in {fn.qname} ({path}:{stmt.lineno})")
        for inner in fn.inner_statements(stmt):
            for node in fn.expressions[inner]:
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if not isinstance(func, ast.Attribute):
                    continue
                if func.attr in ("append", "add", "insert", "extend") and isinstance(
                    func.value, ast.Name
                ):
                    env[func.value.id] = loop_taint
                elif scoped and func.attr in _MERGE_METHODS:
                    self._report(
                        "reduction",
                        fn.qname,
                        path,
                        node,
                        loop_taint,
                        f".{func.attr}() consumed in unordered iteration order",
                    )
                elif (
                    scoped
                    and func.attr in _LOOP_WRITE_METHODS
                    and (
                        func.attr in ("write", "writelines")
                        or _receiver_is_sink(func.value)
                    )
                ):
                    self._report(
                        "sink",
                        fn.qname,
                        path,
                        node,
                        loop_taint,
                        f".{func.attr}() persists elements in unordered "
                        "iteration order",
                    )
            if scoped:
                self._check_accumulation(fn, inner, loop_taint, path)
            # Dict/subscript stores keyed per element: the *container*
            # named on the left inherits the unordered insertion order.
            if isinstance(inner, ast.Assign) and len(inner.targets) == 1:
                root = _subscript_root(inner.targets[0])
                if root is not None:
                    env[root] = loop_taint

    def _check_accumulation(
        self, fn: FunctionInfo, stmt: ast.stmt, taint: Taint, path: str
    ) -> None:
        """Float-style folds inside an unordered loop (RPR012).

        Constant increments (``n += 1``) are order-independent counters
        and never flagged; anything accumulating a per-element value is.
        """
        if isinstance(stmt, ast.AugAssign) and isinstance(
            stmt.op, (ast.Add, ast.Sub, ast.Mult)
        ):
            if isinstance(stmt.value, ast.Constant):
                return
            target = _augassign_target_name(stmt.target)
        elif (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and isinstance(stmt.value, ast.BinOp)
            and isinstance(stmt.value.op, (ast.Add, ast.Sub, ast.Mult))
        ):
            target = stmt.targets[0].id
            if not any(
                isinstance(n, ast.Name) and n.id == target
                for n in ast.walk(stmt.value)
            ):
                return
        else:
            return
        self._report(
            "reduction",
            fn.qname,
            path,
            stmt,
            taint,
            f"accumulation into {target!r} in unordered iteration order",
        )


def _receiver_is_sink(expr: ast.expr) -> bool:
    dotted = dotted_name(expr)
    if dotted is None:
        return False
    tail = dotted.rpartition(".")[2].lower()
    return any(hint in tail for hint in _SINK_RECEIVER_HINTS)


def _subscript_root(expr: ast.expr) -> str | None:
    """The base name of a ``name[...]...`` store target, else ``None``."""
    current = expr
    seen_subscript = False
    while isinstance(current, (ast.Subscript, ast.Attribute)):
        if isinstance(current, ast.Subscript):
            seen_subscript = True
        current = current.value
    if seen_subscript and isinstance(current, ast.Name):
        return current.id
    return None


def _augassign_target_name(target: ast.expr) -> str:
    if isinstance(target, ast.Name):
        return target.id
    dotted = dotted_name(target)
    return dotted if dotted is not None else "<target>"


# ---------------------------------------------------------------------------
# Purity and effect summaries (RPR013 / RPR014 / RPR015)
# ---------------------------------------------------------------------------

#: External call targets whose results depend on process/host/clock
#: state — the impurity *sources* of the cache-purity analysis.
IMPURE_CALLS: frozenset[str] = frozenset(
    {
        "os.getenv",
        "os.environ.get",
        "os.getpid",
        "os.getcwd",
        "os.cpu_count",
        "os.urandom",
        "socket.gethostname",
        "getpass.getuser",
    }
)

#: Dotted-prefix impurity sources: every callable under these modules
#: reads ambient process/host/clock/entropy state.
IMPURE_PREFIXES: tuple[str, ...] = (
    "time.",
    "uuid.",
    "random.",
    "numpy.random.",
    "secrets.",
    "platform.",
)

#: Clock-reading constructors on ``datetime.*`` receivers.
_IMPURE_DATETIME_TAILS = frozenset({"now", "utcnow", "today"})

#: Method names that grow a container in place.
GROWTH_METHODS: frozenset[str] = frozenset(
    {
        "append",
        "appendleft",
        "add",
        "update",
        "extend",
        "extendleft",
        "insert",
        "setdefault",
    }
)

#: Growth methods that are *keyed upserts*: they insert at most once per
#: distinct key, so the container is sized by its key domain rather than
#: by iteration count — mutation, but not unbounded growth.
_UPSERT_METHODS = frozenset({"setdefault"})

#: Constructor tails marking a field as a lock-like object (never
#: picklable, never transportable to a worker process).
_LOCK_TAILS = frozenset(
    {"Lock", "RLock", "Semaphore", "BoundedSemaphore", "Condition", "Event", "Barrier"}
)

#: Constructor tails marking a field as an open handle or worker pool.
_HANDLE_TAILS = frozenset(
    {
        "open",
        "Pool",
        "ThreadPoolExecutor",
        "ProcessPoolExecutor",
        "make_backend",
        "socket",
        "TemporaryFile",
        "NamedTemporaryFile",
    }
)

#: Constructor tails marking tracers/observability backends — process-
#: local state whose worker-side copy silently diverges from the parent.
_TRACER_TAILS = frozenset({"Tracer", "SpanTracer", "Backend", "Observability"})

#: Mutable-container constructors recognized in field initializers.
_CONTAINER_CONSTRUCTORS = frozenset(
    {"list", "dict", "set", "deque", "defaultdict", "OrderedDict", "Counter"}
)

#: Store/persistence sink method names for the purity check (RPR014).
_PURITY_SINK_METHODS = frozenset({"put", "store"})

#: Receiver-name fragments marking cache/store persistence objects.
_PURITY_SINK_RECEIVERS = ("store", "cache", "tier")

#: Class-name fragments that make bare ``self.put(...)`` a purity sink.
_STORE_CLASS_HINTS = ("store", "cache")


@dataclass(frozen=True)
class Effect:
    """One observed side effect with evidence.

    ``kind`` is one of ``"mutates-self"``, ``"mutates-global"``,
    ``"io"``, ``"captures"`` or ``"grows"``.
    """

    kind: str
    subject: str
    detail: str
    path: str
    line: int
    chain: tuple[str, ...] = ()

    def extend(self, hop: str) -> Effect:
        if len(self.chain) >= _MAX_CHAIN_HOPS:
            return self
        return replace(self, chain=(*self.chain, hop))

    def describe(self) -> str:
        return f"{self.detail} at {self.path}:{self.line}"


@dataclass
class EffectSummary:
    """Per-function element of the effect lattice.

    Every map grows first-wins under the fixpoint (a function's summary
    only ever gains entries), which is what guarantees termination on
    recursive call cycles — the same discipline as the taint summaries.
    """

    mutates_self: dict[str, Effect] = field(default_factory=dict)
    mutates_global: dict[str, Effect] = field(default_factory=dict)
    io: Effect | None = None
    captures: dict[str, Effect] = field(default_factory=dict)
    grows: dict[str, Effect] = field(default_factory=dict)


@dataclass(frozen=True)
class GrowthSite:
    """One direct grow operation on an instance or module container."""

    qname: str
    module: str
    path: str
    line: int
    col: int
    container: str
    op: str
    in_loop: bool


@dataclass
class EffectsReport:
    """Everything the effect fixpoint proves; RPR013–015 read this.

    Attributes:
        summaries: Per-function :class:`EffectSummary` by qname.
        growth_sites: Every direct grow operation found, sorted.
        bounded: Container keys (``Class.attr`` / ``module.name``) with
            bounding evidence *somewhere* in the project — bounded
            construction (``deque(maxlen=...)``), an eviction method
            call, a ``del c[...]``, or wholesale reassignment outside
            ``__init__``.
        field_kinds: ``class -> attr -> kind`` for fields holding locks,
            open handles, or tracers/backends (RPR013's transport
            hazards).
        loop_lines: Per-function line sets covered by loop bodies, used
            to decide whether a call site executes repeatedly.
        purity_findings: RPR014 sink hits, sorted.
    """

    summaries: dict[str, EffectSummary]
    growth_sites: tuple[GrowthSite, ...]
    bounded: frozenset[str]
    field_kinds: dict[str, dict[str, str]]
    loop_lines: dict[str, frozenset[int]]
    purity_findings: tuple[Finding, ...]


def analyze_effects(project: Project, graph: CallGraph) -> EffectsReport:
    """Run the purity/effect fixpoint (memoized per project)."""
    if project.effects_cache is None:
        project.effects_cache = _Purity(project, graph).report()
    return project.effects_cache


def _classify_value(value: ast.expr | None) -> str | None:
    """Transport-hazard kind of an assigned value, else ``None``."""
    if not isinstance(value, ast.Call):
        return None
    func = value.func
    dotted = dotted_name(func)
    tail = dotted.rpartition(".")[2] if dotted is not None else None
    if tail is None and isinstance(func, ast.Attribute):
        tail = func.attr
    if tail is None:
        return None
    if tail in _LOCK_TAILS:
        return "lock"
    if tail in _HANDLE_TAILS:
        return "open handle"
    if tail in _TRACER_TAILS or tail.endswith(("Tracer", "Backend")):
        return "tracer/backend"
    return None


def _is_mutable_container(value: ast.expr | None) -> bool:
    if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(value, ast.Call):
        dotted = dotted_name(value.func)
        tail = dotted.rpartition(".")[2] if dotted is not None else None
        return tail in _CONTAINER_CONSTRUCTORS
    return False


def _is_bounded_construction(value: ast.expr | None) -> bool:
    """True for containers bounded at construction (``deque(maxlen=N)``,
    LRU/bounded cache classes)."""
    if not isinstance(value, ast.Call):
        return False
    dotted = dotted_name(value.func)
    tail = dotted.rpartition(".")[2] if dotted is not None else ""
    if tail == "deque":
        for keyword in value.keywords:
            if keyword.arg == "maxlen" and not (
                isinstance(keyword.value, ast.Constant)
                and keyword.value.value is None
            ):
                return True
        return False
    lowered = tail.lower()
    return "lru" in lowered or "bounded" in lowered


def _local_names(fn: FunctionInfo) -> frozenset[str]:
    """Parameter and locally-bound names of one function.  Names the
    function declares ``global``/``nonlocal`` are excluded — writes to
    them target the outer scope."""
    names = set(fn.params)
    outer: set[str] = set()
    for node in fn.nodes:
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            outer.update(node.names)
    return frozenset(names - outer)


#: Loop constructs; calls inside comprehensions also run per element.
_LOOP_NODES = (
    ast.For,
    ast.AsyncFor,
    ast.While,
    ast.ListComp,
    ast.SetComp,
    ast.DictComp,
    ast.GeneratorExp,
)


def _loop_line_set(fn: FunctionInfo) -> frozenset[int]:
    lines: set[int] = set()
    for node in fn.nodes:
        if isinstance(node, _LOOP_NODES):
            end = node.end_lineno or node.lineno
            lines.update(range(node.lineno, end + 1))
    return frozenset(lines)


def _is_impure_external(target: str) -> bool:
    if target in IMPURE_CALLS:
        return True
    if any(target.startswith(prefix) for prefix in IMPURE_PREFIXES):
        return True
    return (
        target.startswith("datetime.")
        and target.rpartition(".")[2] in _IMPURE_DATETIME_TAILS
    )


class _Purity(_Walker):
    """Impure values reaching cache persistence, plus effect summaries.

    Two deterministic pre-sweeps seed the effect lattice before the
    worklist runs: a *class sweep* classifying fields (mutable
    containers, bounded-at-construction containers, transport hazards,
    fields reassigned outside ``__init__``), then a *function sweep*
    recording direct effects — growth sites, bounding evidence, closure
    captures, io — plus per-function loop-line sets.  The fixpoint then
    carries the purity taint and, in the same walk, absorbs callee
    summaries (module mutation, growth, io, and ``self`` mutation through
    ``self`` dispatch) at every resolved call site.

    Field reads are judged by "mutated outside ``__init__``", so the
    purity taint itself records no ``self`` fields.
    """

    def __init__(self, project: Project, graph: CallGraph) -> None:
        super().__init__(project, graph)
        self.summaries: dict[str, EffectSummary] = {}
        self._changed = False
        self._growth: dict[tuple[str, int, int, str], GrowthSite] = {}
        self._bounded: set[str] = set()
        self._field_kinds: dict[str, dict[str, str]] = {}
        self._mutable_fields: dict[str, set[str]] = {}
        self._mutated_outside_init: dict[str, dict[str, Effect]] = {}
        self._loop_lines: dict[str, frozenset[int]] = {}
        self._locals: dict[str, frozenset[str]] = {}
        self._module_containers: dict[str, str | None] = {}

    def report(self) -> EffectsReport:
        for qname in sorted(self.project.functions):
            self._scan_class_fields(self.project.functions[qname])
        for qname in sorted(self.project.functions):
            self._collect_direct(self.project.functions[qname])
        findings = self.run()
        return EffectsReport(
            summaries=self.summaries,
            growth_sites=tuple(
                sorted(
                    self._growth.values(),
                    key=lambda s: (s.path, s.line, s.col, s.container),
                )
            ),
            bounded=frozenset(self._bounded),
            field_kinds=self._field_kinds,
            loop_lines=self._loop_lines,
            purity_findings=tuple(findings),
        )

    # ---- pre-sweep 1: class fields --------------------------------------

    def _scan_class_fields(self, fn: FunctionInfo) -> None:
        if fn.class_qname is None or isinstance(fn.node, ast.Lambda):
            return
        cls = fn.class_qname
        kinds = self._field_kinds.setdefault(cls, {})
        in_init = fn.name == "__init__"
        path = self._path(fn)
        for stmt in fn.statements:
            pairs: list[tuple[str, ast.expr | None, int]] = []
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                attr = self_attr(stmt.targets[0])
                if attr is not None:
                    pairs.append((attr, stmt.value, stmt.lineno))
            elif isinstance(stmt, ast.AnnAssign):
                attr = self_attr(stmt.target)
                if attr is not None:
                    pairs.append((attr, stmt.value, stmt.lineno))
            for attr, value, lineno in pairs:
                kind = _classify_value(value)
                if kind is not None and attr not in kinds:
                    kinds[attr] = kind
                key = f"{cls}.{attr}"
                if in_init:
                    if _is_mutable_container(value):
                        self._mutable_fields.setdefault(cls, set()).add(attr)
                    if _is_bounded_construction(value):
                        self._bounded.add(key)
                else:
                    # Wholesale reassignment outside __init__ retires the
                    # old contents — bounding evidence for RPR015, and a
                    # post-construction mutation for RPR014.
                    self._bounded.add(key)
                    self._note_outside_init(
                        cls, attr, path, lineno, f"self.{attr} reassigned"
                    )

    def _note_outside_init(
        self, cls: str, attr: str, path: str, line: int, detail: str
    ) -> None:
        mutated = self._mutated_outside_init.setdefault(cls, {})
        if attr not in mutated:
            mutated[attr] = Effect(
                kind="mutates-self",
                subject=f"self.{attr}",
                detail=detail,
                path=path,
                line=line,
            )

    # ---- pre-sweep 2: direct effects ------------------------------------

    def _collect_direct(self, fn: FunctionInfo) -> None:
        summary = self.summaries.setdefault(fn.qname, EffectSummary())
        path = self._path(fn)
        locals_ = _local_names(fn)
        self._locals[fn.qname] = locals_
        loops = self._loop_lines[fn.qname] = _loop_line_set(fn)
        upserts = self._upsert_guarded(fn, locals_)
        self._collect_captures(fn, summary, path)
        for node in fn.nodes:
            if isinstance(node, ast.Call):
                if isinstance(node.func, ast.Attribute):
                    self._container_method_effects(
                        fn, node, summary, path, locals_, node.lineno in loops, upserts
                    )
                self._io_effect(fn, node, summary, path)
        for stmt in fn.statements:
            in_loop = stmt.lineno in loops
            if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                self._store_effects(
                    fn, stmt, summary, path, locals_, in_loop, upserts
                )
            elif isinstance(stmt, ast.Delete):
                for target in stmt.targets:
                    if isinstance(target, ast.Subscript):
                        container = self._container_of(fn, target.value, locals_)
                        if container is not None:
                            self._bounded.add(container[0])

    def _upsert_guarded(
        self, fn: FunctionInfo, locals_: frozenset[str]
    ) -> frozenset[str]:
        """Container keys this function grows only behind a key guard.

        A function that reads ``container.get(key)`` or tests
        ``key in container`` before storing follows the keyed-upsert
        idiom (registries, interning caches): it inserts at most once
        per distinct key, so the container is sized by its key domain
        rather than by how often the function runs.  Stores to such
        containers are mutations but not unbounded growth.
        """
        guarded: set[str] = set()
        for node in fn.nodes:
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "get"
            ):
                container = self._container_of(fn, node.func.value, locals_)
                if container is not None:
                    guarded.add(container[0])
            elif isinstance(node, ast.Compare) and any(
                isinstance(op, (ast.In, ast.NotIn)) for op in node.ops
            ):
                for comparator in node.comparators:
                    container = self._container_of(fn, comparator, locals_)
                    if container is not None:
                        guarded.add(container[0])
        return frozenset(guarded)

    def _collect_captures(
        self, fn: FunctionInfo, summary: EffectSummary, path: str
    ) -> None:
        """Free variables of a nested def/lambda, classified by what the
        enclosing scope binds them to."""
        if fn.parent is None:
            return
        ancestors: list[FunctionInfo] = []
        parent = fn.parent
        while parent is not None:
            info = self.project.functions.get(parent)
            if info is None:
                break
            ancestors.append(info)
            parent = info.parent
        if not ancestors:
            return
        own = self._locals.get(fn.qname)
        if own is None:
            own = self._locals[fn.qname] = _local_names(fn)
        for node in fn.nodes:
            if not (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)):
                continue
            name = node.id
            if name in own or name in summary.captures:
                continue
            for ancestor in ancestors:
                outer = self._locals.get(ancestor.qname)
                if outer is None:
                    outer = self._locals[ancestor.qname] = _local_names(ancestor)
                if name not in outer:
                    continue
                kind = self._captured_kind(ancestor, name)
                summary.captures[name] = Effect(
                    kind="captures",
                    subject=name,
                    detail=f"captures {name!r} ({kind}) from {ancestor.qname}",
                    path=path,
                    line=node.lineno,
                )
                break

    def _captured_kind(self, ancestor: FunctionInfo, name: str) -> str:
        for stmt in ancestor.statements:
            value: ast.expr | None = None
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
                if isinstance(target, ast.Name) and target.id == name:
                    value = stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                if isinstance(stmt.target, ast.Name) and stmt.target.id == name:
                    value = stmt.value
            elif isinstance(stmt, ast.With):
                for item in stmt.items:
                    if (
                        isinstance(item.optional_vars, ast.Name)
                        and item.optional_vars.id == name
                    ):
                        value = item.context_expr
            if value is None:
                continue
            kind = _classify_value(value)
            if kind is not None:
                return kind
        return "value"

    def _container_of(
        self, fn: FunctionInfo, expr: ast.expr, locals_: frozenset[str]
    ) -> tuple[str, str] | None:
        """(container key, display name) for a mutation receiver, or
        ``None`` when the receiver is a local/parameter (mutating an
        argument is the caller's concern) or unresolvable."""
        attr = self_attr(expr)
        if attr is not None and fn.class_qname is not None:
            return f"{fn.class_qname}.{attr}", f"self.{attr}"
        if isinstance(expr, ast.Name) and expr.id not in locals_:
            name = expr.id
            module = self.project.modules.get(fn.module)
            if module is None:
                return None
            binding = module.env.get(name)
            if binding is None:
                # A module-level variable of this module.
                return f"{fn.module}.{name}", name
            if binding[0] == "member":
                resolved = self.project.resolve(fn.module, name)
                if resolved is not None and resolved.kind == "external":
                    owner = resolved.target.rpartition(".")[0]
                    # Imported module state, not a true third-party name.
                    if owner in self.project.modules:
                        return resolved.target, name
        return None

    def _module_container_kind(self, key: str) -> str | None:
        """``"bounded"`` / ``"mutable"`` / ``None`` for a module-level
        ``module.name`` key, from the owning module's top-level assigns."""
        if key in self._module_containers:
            return self._module_containers[key]
        owner, _, name = key.rpartition(".")
        kind: str | None = None
        module = self.project.modules.get(owner)
        if module is not None:
            for stmt in module.context.tree.body:
                value: ast.expr | None = None
                if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                    target = stmt.targets[0]
                    if isinstance(target, ast.Name) and target.id == name:
                        value = stmt.value
                elif isinstance(stmt, ast.AnnAssign):
                    if isinstance(stmt.target, ast.Name) and stmt.target.id == name:
                        value = stmt.value
                if value is None:
                    continue
                if _is_bounded_construction(value):
                    kind = "bounded"
                elif _is_mutable_container(value):
                    kind = "mutable"
                break
        self._module_containers[key] = kind
        return kind

    def _growable(self, fn: FunctionInfo, expr: ast.expr, key: str) -> bool:
        attr = self_attr(expr)
        if attr is not None and fn.class_qname is not None:
            return attr in self._mutable_fields.get(fn.class_qname, set())
        kind = self._module_container_kind(key)
        if kind == "bounded":
            self._bounded.add(key)
            return False
        return kind == "mutable"

    def _container_method_effects(
        self,
        fn: FunctionInfo,
        call: ast.Call,
        summary: EffectSummary,
        path: str,
        locals_: frozenset[str],
        in_loop: bool,
        upserts: frozenset[str],
    ) -> None:
        func = call.func
        assert isinstance(func, ast.Attribute)
        method = func.attr
        is_growth = method in GROWTH_METHODS
        is_bounder = method in DEFAULT_BOUND_METHODS
        if not (is_growth or is_bounder):
            return
        container = self._container_of(fn, func.value, locals_)
        if container is None:
            return
        key, display = container
        if is_bounder:
            self._bounded.add(key)
        effect = Effect(
            kind="mutates-self" if display.startswith("self.") else "mutates-global",
            subject=display,
            detail=f".{method}() on {display}",
            path=path,
            line=call.lineno,
            chain=(f"mutated in {fn.qname} ({path}:{call.lineno})",),
        )
        self._note_mutation(fn, summary, key, display, effect)
        if (
            is_growth
            and method not in _UPSERT_METHODS
            and key not in upserts
            and self._growable(fn, func.value, key)
        ):
            self._add_growth(fn, summary, key, f".{method}()", call, path, in_loop, effect)

    def _store_effects(
        self,
        fn: FunctionInfo,
        stmt: ast.Assign | ast.AnnAssign | ast.AugAssign,
        summary: EffectSummary,
        path: str,
        locals_: frozenset[str],
        in_loop: bool,
        upserts: frozenset[str],
    ) -> None:
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        for target in targets:
            if isinstance(target, ast.Subscript):
                container = self._container_of(fn, target.value, locals_)
                if container is None:
                    continue
                key, display = container
                effect = Effect(
                    kind=(
                        "mutates-self"
                        if display.startswith("self.")
                        else "mutates-global"
                    ),
                    subject=display,
                    detail=f"{display}[...] = ... store",
                    path=path,
                    line=stmt.lineno,
                    chain=(f"mutated in {fn.qname} ({path}:{stmt.lineno})",),
                )
                self._note_mutation(fn, summary, key, display, effect)
                # ``d[k] += x`` requires the key to exist already, a
                # keyed-upsert guard makes the store once-per-key, and a
                # RHS that reads the container back is a fold/rewrite of
                # existing entries — none of those are unbounded growth.
                if (
                    not isinstance(stmt, ast.AugAssign)
                    and key not in upserts
                    and not self._rhs_reads_container(fn, stmt, locals_, key)
                    and self._growable(fn, target.value, key)
                ):
                    self._add_growth(
                        fn, summary, key, "[...]= store", stmt, path, in_loop, effect
                    )
            elif isinstance(stmt, ast.AugAssign):
                attr = self_attr(target)
                if attr is None or fn.class_qname is None:
                    continue
                key = f"{fn.class_qname}.{attr}"
                display = f"self.{attr}"
                effect = Effect(
                    kind="mutates-self",
                    subject=display,
                    detail=f"augmented assignment to {display}",
                    path=path,
                    line=stmt.lineno,
                    chain=(f"mutated in {fn.qname} ({path}:{stmt.lineno})",),
                )
                self._note_mutation(fn, summary, key, display, effect)
                # += on a mutable container concatenates; on counters it
                # is numeric and excluded by the mutable-field gate.
                if attr in self._mutable_fields.get(fn.class_qname, set()):
                    self._add_growth(
                        fn, summary, key, "augmented +=", stmt, path, in_loop, effect
                    )

    def _rhs_reads_container(
        self,
        fn: FunctionInfo,
        stmt: ast.Assign | ast.AnnAssign,
        locals_: frozenset[str],
        key: str,
    ) -> bool:
        """True when the stored value reads the same container back."""
        if stmt.value is None:
            return False
        for node in ast.walk(stmt.value):
            if isinstance(node, (ast.Attribute, ast.Name)):
                container = self._container_of(fn, node, locals_)
                if container is not None and container[0] == key:
                    return True
        return False

    def _note_mutation(
        self,
        fn: FunctionInfo,
        summary: EffectSummary,
        key: str,
        display: str,
        effect: Effect,
    ) -> None:
        if display.startswith("self."):
            attr = display[len("self.") :]
            summary.mutates_self.setdefault(attr, effect)
            if fn.name != "__init__" and fn.class_qname is not None:
                self._note_outside_init(
                    fn.class_qname, attr, effect.path, effect.line, effect.detail
                )
        else:
            summary.mutates_global.setdefault(key, effect)

    def _add_growth(
        self,
        fn: FunctionInfo,
        summary: EffectSummary,
        key: str,
        op: str,
        node: ast.stmt | ast.expr,
        path: str,
        in_loop: bool,
        effect: Effect,
    ) -> None:
        site = GrowthSite(
            qname=fn.qname,
            module=fn.module,
            path=path,
            line=node.lineno,
            col=node.col_offset,
            container=key,
            op=op,
            in_loop=in_loop,
        )
        self._growth.setdefault((path, site.line, site.col, key), site)
        summary.grows.setdefault(
            key,
            Effect(
                kind="grows",
                subject=key,
                detail=f"{key} grows via {op}",
                path=path,
                line=site.line,
                chain=effect.chain,
            ),
        )

    def _io_effect(
        self, fn: FunctionInfo, call: ast.Call, summary: EffectSummary, path: str
    ) -> None:
        if summary.io is not None:
            return
        func = call.func
        detail: str | None = None
        if isinstance(func, ast.Name) and func.id in ("open", "print", "input"):
            if self._is_builtin(fn, func.id):
                detail = f"{func.id}()"
        elif isinstance(func, ast.Attribute) and func.attr in (
            "write",
            "writelines",
            "write_text",
            "read_text",
            "read_bytes",
            "mkdir",
            "unlink",
        ):
            detail = f".{func.attr}()"
        if detail is not None:
            summary.io = Effect(
                kind="io",
                subject=detail,
                detail=f"performs io via {detail}",
                path=path,
                line=call.lineno,
                chain=(f"io in {fn.qname} ({path}:{call.lineno})",),
            )

    # ---- the fixpoint ---------------------------------------------------

    def _analyze(self, fn: FunctionInfo) -> list[str]:
        self._changed = False
        touched = super()._analyze(fn)
        if self._changed:
            touched.extend(site.caller for site in self.graph.callers(fn.qname))
        return touched

    def _visit_call(
        self,
        fn: FunctionInfo,
        call: ast.Call,
        env: dict[str, Taint],
        path: str,
        scoped: bool,
    ) -> None:
        self._changed |= self._absorb_callee(fn, call, path)
        if scoped:
            self._check_sink(fn, call, env, path)

    def _absorb_callee(self, fn: FunctionInfo, call: ast.Call, path: str) -> bool:
        callee_q = resolve_call_target(self.project, fn, call)
        if callee_q is None or callee_q == fn.qname:
            return False
        callee_summary = self.summaries.get(callee_q)
        if callee_summary is None:
            return False
        summary = self.summaries[fn.qname]
        hop = f"called from {fn.qname} ({path}:{call.lineno})"
        changed = False
        for key, effect in sorted(callee_summary.mutates_global.items()):
            if key not in summary.mutates_global:
                summary.mutates_global[key] = effect.extend(hop)
                changed = True
        for key, effect in sorted(callee_summary.grows.items()):
            if key not in summary.grows:
                summary.grows[key] = effect.extend(hop)
                changed = True
        if summary.io is None and callee_summary.io is not None:
            summary.io = callee_summary.io.extend(hop)
            changed = True
        # self-dispatch executes the callee's field mutations on *this*
        # instance; calls through other receivers stay with the callee.
        if (
            isinstance(call.func, ast.Attribute)
            and isinstance(call.func.value, ast.Name)
            and call.func.value.id == "self"
        ):
            for attr, effect in sorted(callee_summary.mutates_self.items()):
                if attr not in summary.mutates_self:
                    summary.mutates_self[attr] = effect.extend(hop)
                    changed = True
        return changed

    # ---- the purity lattice ---------------------------------------------

    def _key(self, finding: Finding) -> tuple[object, ...]:
        return (finding.path, finding.line, finding.col, finding.detail)

    def _store_field(self, class_qname: str, attr: str, taint: Taint) -> list[str]:
        return []

    def _field(
        self, fn: FunctionInfo, class_qname: str, attr: str, expr: ast.expr, path: str
    ) -> Taint | None:
        template = self._mutated_outside_init.get(class_qname, {}).get(attr)
        if template is None:
            return None
        return self._origin(
            fn,
            expr,
            path,
            f"read of self.{attr}, mutated outside __init__ ({template.describe()})",
            verb="read",
        )

    def _call(
        self,
        fn: FunctionInfo,
        call: ast.Call,
        env: dict[str, Taint],
        path: str,
    ) -> Taint | None:
        # The seams are checked before project callees: derive_rng is a
        # project function whose body reads numpy.random.
        if self._external_target(fn, call) in DEFAULT_SANCTIONED_SEAMS:
            return None
        return super()._call(fn, call, env, path)

    def _source(
        self,
        fn: FunctionInfo,
        call: ast.Call,
        env: dict[str, Taint],
        path: str,
    ) -> Taint | None:
        func = call.func
        if isinstance(func, ast.Name) and func.id == "id" and self._is_builtin(fn, "id"):
            return self._origin(
                fn, call, path, "id() (process-dependent object address)", "called"
            )
        external = self._external_target(fn, call)
        if external is not None and _is_impure_external(external):
            return self._origin(
                fn, call, path, f"{external}() (process/host/clock-dependent)", "called"
            )
        return None

    def _expr_form(
        self,
        fn: FunctionInfo,
        expr: ast.expr,
        env: dict[str, Taint],
        path: str,
    ) -> Taint | None:
        # Attribute reads off impure locals do NOT propagate: the
        # analysis is value-granular (``result.output`` stays clean when
        # only ``result.wall_ms`` carried the clock) — the documented
        # RPR014 trade-off.
        if isinstance(expr, ast.UnaryOp):
            return self._expr(fn, expr.operand, env, path)
        if isinstance(expr, ast.Compare):
            return self._first(fn, [expr.left, *expr.comparators], env, path)
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            return self._first(fn, expr.elts, env, path)
        if isinstance(expr, ast.Dict):
            parts = [sub for sub in (*expr.keys, *expr.values) if sub is not None]
            return self._first(fn, parts, env, path)
        if isinstance(expr, ast.JoinedStr):
            return self._first(fn, expr.values, env, path)
        if isinstance(expr, (ast.FormattedValue, ast.Subscript)):
            return self._expr(fn, expr.value, env, path)
        return None

    def _check_sink(
        self,
        fn: FunctionInfo,
        call: ast.Call,
        env: dict[str, Taint],
        path: str,
    ) -> None:
        func = call.func
        if not isinstance(func, ast.Attribute) or func.attr not in _PURITY_SINK_METHODS:
            return
        if not self._receiver_is_persistence(fn, func.value):
            return
        checked: list[ast.expr] = [
            arg for arg in call.args[:3] if not isinstance(arg, ast.Starred)
        ]
        for keyword in call.keywords:
            # Timing keywords (compute_ms and friends) are measurement
            # metadata, explicitly exempt from the purity contract.
            if keyword.arg is None or keyword.arg.endswith("_ms"):
                continue
            checked.append(keyword.value)
        taint = self._first(fn, checked, env, path)
        if taint is not None:
            receiver = dotted_name(func.value) or "store"
            sink = f".{func.attr}() on {receiver!r}"
            self._report("impure", fn.qname, path, call, taint, sink)

    def _receiver_is_persistence(self, fn: FunctionInfo, expr: ast.expr) -> bool:
        dotted = dotted_name(expr)
        if dotted is None:
            return False
        if dotted == "self":
            # self.put(...) inside a store/cache class is a sink too.
            cls = (fn.class_qname or "").rpartition(".")[2].lower()
            return any(hint in cls for hint in _STORE_CLASS_HINTS)
        tail = dotted.rpartition(".")[2].lower()
        return any(hint in tail for hint in _PURITY_SINK_RECEIVERS)
