"""How the whole-program lint phase reads the AST.

Two properties that equal findings cannot show: every pass reads one
walk per function instead of walking the tree again, and the import
scan, which visits statements only, resolves names exactly as a scan of
every node in ``ast.walk`` order does.
"""

from __future__ import annotations

import ast
import textwrap
from collections import Counter
from pathlib import Path

import pytest

from repro.lint import Project, lint_project
from repro.lint.base import _resolve_imports

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Nested defs and lambdas, comprehensions, and defs in ``if``/``try``/
#: ``match`` blocks and a class body, over two modules.  No lambda sits
#: in a default or a decorator, where no symbol owns it.
WALK_FIXTURE = {
    "src/repro/core/walks.py": """
        from repro.utils.shapes import area, scale

        def outer(boxes, flag):
            def inner(box):
                return area(box) + sum(scale(x) for x in box)
            if flag:
                def chosen(box):
                    return [inner(b) for b in box]
            else:
                chosen = lambda box: {k: area(v) for k, v in box.items()}
            try:
                def guarded():
                    return chosen(boxes)
            except ValueError:
                def guarded():
                    return None
            match flag:
                case True:
                    def picked():
                        return guarded()
                case _:
                    picked = lambda: (lambda: inner(boxes))()
            return picked()

        class Walker:
            key = staticmethod(lambda item: item[0])

            def run(self, items):
                def step(item):
                    return self.key(item)
                return sorted(items, key=step)
    """,
    "src/repro/utils/shapes.py": """
        def area(box):
            return box[2] * box[3]

        def scale(x, factor=2):
            return [x * factor for _ in range(factor)]
    """,
}


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


def _owned_nodes(tree: ast.Module) -> list[ast.AST]:
    """Every node some def or lambda owns: its body, without entering a
    nested def, class or lambda.  Leaf singletons such as ``ast.Load()``,
    shared by the whole tree, are left out."""
    owned: list[ast.AST] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            pending: list[ast.AST] = list(node.body)
        elif isinstance(node, ast.Lambda):
            pending = [node.body]
        else:
            continue
        while pending:
            current = pending.pop()
            if isinstance(current, _SCOPES):
                continue
            if type(current)._fields:
                owned.append(current)
            pending.extend(ast.iter_child_nodes(current))
    return owned


def test_whole_program_phase_walks_each_function_once(monkeypatch) -> None:
    expanded: Counter[int] = Counter()
    iter_child_nodes = ast.iter_child_nodes

    def counting(node: ast.AST):
        expanded[id(node)] += 1
        return iter_child_nodes(node)

    projects: list[Project] = []
    from_contexts = Project.from_contexts.__func__

    def capture(cls, contexts, config=None):
        project = from_contexts(cls, contexts, config)
        projects.append(project)
        return project

    monkeypatch.setattr(Project, "from_contexts", classmethod(capture))
    monkeypatch.setattr(ast, "iter_child_nodes", counting)
    sources = {path: textwrap.dedent(src) for path, src in WALK_FIXTURE.items()}
    # No per-file rules: only the whole-program phase runs.
    assert lint_project(sources, rules=()) == []
    monkeypatch.undo()

    (project,) = projects
    assert len(project.functions) == 13  # the two `guarded` defs share a qname
    for module in project.modules.values():
        for node in _owned_nodes(module.context.tree):
            where = f"{module.path}:{getattr(node, 'lineno', '?')}"
            assert expanded[id(node)] == 1, (type(node).__name__, where)


def _resolve_imports_reference(
    tree: ast.AST,
) -> tuple[dict[str, str], dict[str, str]]:
    """The import scan over every node of the tree, in ``ast.walk`` order."""
    module_aliases: dict[str, str] = {}
    member_imports: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                module_aliases[local] = target
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                member_imports[local] = f"{node.module}.{alias.name}"
    return module_aliases, member_imports


def _items(maps: tuple[dict[str, str], dict[str, str]]) -> list[list[tuple[str, str]]]:
    """Both maps as item lists, so insertion order is compared too."""
    return [list(mapping.items()) for mapping in maps]


#: One name imported at module level (last in the file but shallowest),
#: in ``try``/``except``, under ``if TYPE_CHECKING``, in a function and in
#: ``match`` cases.  Breadth-first order lets the deepest import of each
#: kind win, where source order would let the module-level one win.
IMPORT_FIXTURE = """
from typing import TYPE_CHECKING

try:
    import ujson as codec
except ImportError:
    from simplejson import dumps as codec

if TYPE_CHECKING:
    from pickle import loads as codec

def load(kind):
    match kind:
        case "yaml":
            from yaml import safe_load as codec
        case _:
            import marshal as codec
    return codec

import json as codec
"""


def test_import_scan_order_on_fixture() -> None:
    tree = ast.parse(IMPORT_FIXTURE)
    assert _items(_resolve_imports(tree)) == _items(_resolve_imports_reference(tree))
    module_aliases, member_imports = _resolve_imports(tree)
    assert module_aliases == {"codec": "marshal"}
    assert list(member_imports.items()) == [
        ("TYPE_CHECKING", "typing.TYPE_CHECKING"),
        ("codec", "yaml.safe_load"),
    ]


@pytest.mark.parametrize("top", ["src", "tests", "benchmarks", "examples"])
def test_import_scan_matches_ast_walk_on_repo(top: str) -> None:
    paths = sorted((REPO_ROOT / top).rglob("*.py"))
    assert paths
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert _items(_resolve_imports(tree)) == _items(
            _resolve_imports_reference(tree)
        ), path
