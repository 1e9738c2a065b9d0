"""The interprocedural call graph over a :class:`~repro.lint.project.Project`.

One directed edge per resolved call site: caller function → callee
function, both identified by qualified name.  Resolution handles the
shapes this codebase actually uses:

* bare names — nested defs (walking the enclosing-function chain first),
  then module globals, then imports (aliased or not);
* dotted names through module aliases and ``__init__`` re-exports
  (``import repro.core.mes as m; m.MES(...)``);
* ``self.method(...)`` and ``cls.method(...)`` inside methods (and inside
  defs and lambdas nested in them), following project-resolved base
  classes;
* ``obj.method(...)`` where ``obj`` is a local constructed from a
  project class in the same function (one-level flow-insensitive type
  inference: ``store = EvaluationStore(...); store.put(...)``);
* constructor calls, which resolve to the class's ``__init__`` when one
  is defined in the project.

Unresolvable targets (builtins, third-party calls, dynamic dispatch)
produce no edge — rules treat missing edges as "analysis cannot follow",
the conservative-for-false-positives direction.  Cycles are allowed;
traversals guard with visited sets.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field

from repro.lint.base import dotted_name
from repro.lint.project import FunctionInfo, Project

__all__ = ["CallGraph", "CallSite", "enclosing_class"]


@dataclass(frozen=True)
class CallSite:
    """One resolved call edge, pinned to its source location."""

    caller: str
    callee: str
    line: int
    col: int
    node: ast.Call = field(compare=False, repr=False)


class CallGraph:
    """Resolved call edges, queryable in both directions."""

    def __init__(self) -> None:
        self._edges: dict[str, list[CallSite]] = {}
        self._reverse: dict[str, list[CallSite]] = {}
        self._local_types: dict[str, dict[str, str]] = {}

    @classmethod
    def build(cls, project: Project) -> CallGraph:
        graph = cls()
        for qname in sorted(project.functions):
            fn = project.functions[qname]
            local_types = _infer_local_types(project, fn)
            if local_types:
                graph._local_types[qname] = local_types
            for node in fn.nodes:
                if not isinstance(node, ast.Call):
                    continue
                callee = resolve_call_target(project, fn, node, local_types)
                if callee is None:
                    continue
                graph._add(
                    CallSite(
                        caller=qname,
                        callee=callee,
                        line=node.lineno,
                        col=node.col_offset,
                        node=node,
                    )
                )
        return graph

    def _add(self, site: CallSite) -> None:
        self._edges.setdefault(site.caller, []).append(site)
        self._reverse.setdefault(site.callee, []).append(site)

    def callees(self, qname: str) -> tuple[CallSite, ...]:
        """Call sites made from inside ``qname``, in source order."""
        return tuple(self._edges.get(qname, ()))

    def callers(self, qname: str) -> tuple[CallSite, ...]:
        """Call sites that target ``qname``."""
        return tuple(self._reverse.get(qname, ()))

    def local_types(self, qname: str) -> Mapping[str, str]:
        """The locals of ``qname`` typed by a project-class constructor,
        as the graph resolved their method calls (local → class qname)."""
        return self._local_types.get(qname, {})


def _enclosing_chain(
    project: Project, fn: FunctionInfo | None
) -> Iterator[FunctionInfo]:
    """``fn`` and the functions lexically enclosing it, innermost first."""
    while fn is not None:
        yield fn
        fn = project.functions.get(fn.parent) if fn.parent is not None else None


def _lookup_nested(
    project: Project, fn: FunctionInfo | None, name: str
) -> str | None:
    """Resolve a bare name against the enclosing-function def chain."""
    for current in _enclosing_chain(project, fn):
        if name in current.nested:
            return current.nested[name]
    return None


def enclosing_class(project: Project, fn: FunctionInfo | None) -> str | None:
    """The class ``self``/``cls`` name inside ``fn``: its own for a method,
    the nearest enclosing method's for a nested def or lambda that does
    not rebind them."""
    for current in _enclosing_chain(project, fn):
        if current.class_qname is not None:
            return current.class_qname
        if "self" in current.params or "cls" in current.params:
            return None
    return None


def _infer_local_types(project: Project, fn: FunctionInfo) -> dict[str, str]:
    """Locals assigned from a project-class constructor → class qname."""
    types: dict[str, str] = {}
    for node in fn.nodes:
        if not (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Call)
        ):
            continue
        dotted = dotted_name(node.value.func)
        if dotted is None:
            continue
        resolved = project.resolve(fn.module, dotted)
        if resolved is not None and resolved.kind == "class":
            types[node.targets[0].id] = resolved.target
        else:
            # Reassignment to something we can't type kills the binding.
            types.pop(node.targets[0].id, None)
    return types


def resolve_call_target(
    project: Project,
    fn: FunctionInfo,
    call: ast.Call,
    local_types: dict[str, str] | None = None,
) -> str | None:
    """The qualified name of the project function a call dispatches to.

    Returns ``None`` when the target is external, builtin, or dynamic.
    """
    func = call.func
    if isinstance(func, ast.Name):
        nested = _lookup_nested(project, fn, func.id)
        if nested is not None:
            return nested
        return _as_callable(project, fn, func.id)
    if isinstance(func, ast.Attribute):
        if isinstance(func.value, ast.Name):
            root = func.value.id
            if root in ("self", "cls"):
                class_qname = enclosing_class(project, fn)
                if class_qname is not None:
                    return project.method(class_qname, func.attr)
            if local_types and root in local_types:
                return project.method(local_types[root], func.attr)
        dotted = dotted_name(func)
        if dotted is not None:
            return _as_callable(project, fn, dotted)
    return None


def _as_callable(project: Project, fn: FunctionInfo, dotted: str) -> str | None:
    resolved = project.resolve(fn.module, dotted)
    if resolved is None:
        return None
    if resolved.kind == "function":
        return resolved.target
    if resolved.kind == "class":
        return project.method(resolved.target, "__init__")
    return None
