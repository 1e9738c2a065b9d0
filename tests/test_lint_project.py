"""Unit tests for the whole-program layer: project model + call graph.

The edge cases the interprocedural rules (RPR006–RPR009) lean on:
module-name derivation, aliased imports, ``__init__`` re-export chains,
import cycles, decorated functions, methods resolved through ``self``
and base classes, nested defs/lambdas, and the layer config.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.lint import (
    CallGraph,
    DEFAULT_LAYERS,
    FileContext,
    LintConfig,
    Project,
    lint_paths,
    module_name_for_path,
)


def build_project(sources: dict[str, str]) -> Project:
    contexts = {
        path: FileContext.from_source(textwrap.dedent(source), path)
        for path, source in sources.items()
    }
    return Project.from_contexts(contexts)


def build_graph(sources: dict[str, str]) -> tuple[Project, CallGraph]:
    project = build_project(sources)
    return project, CallGraph.build(project)


# ---------------------------------------------------------------------------
# module naming


@pytest.mark.parametrize(
    ("path", "expected"),
    [
        ("src/repro/core/mes.py", "repro.core.mes"),
        ("/abs/repo/src/repro/utils/rng.py", "repro.utils.rng"),
        ("src/repro/engine/__init__.py", "repro.engine"),
        ("src/repro/../repro/engine/store.py", "repro.engine.store"),
        ("src/repro/__init__.py", "repro"),
        ("tests/test_mes.py", "tests.test_mes"),
        ("benchmarks/common.py", "benchmarks.common"),
        ("fixture.py", "fixture"),
    ],
)
def test_module_name_for_path(path: str, expected: str) -> None:
    assert module_name_for_path(path) == expected


# ---------------------------------------------------------------------------
# symbol table and resolution


def test_aliased_module_import_resolves() -> None:
    project = build_project(
        {
            "src/repro/core/mes.py": """
            def choose():
                return 1
            """,
            "src/repro/runner/use.py": """
            import repro.core.mes as m

            def go():
                return m.choose()
            """,
        }
    )
    resolved = project.resolve("repro.runner.use", "m.choose")
    assert resolved is not None
    assert resolved.kind == "function"
    assert resolved.target == "repro.core.mes.choose"


def test_from_import_with_asname_resolves() -> None:
    project = build_project(
        {
            "src/repro/core/mes.py": "def choose():\n    return 1\n",
            "src/repro/runner/use.py": (
                "from repro.core.mes import choose as pick\n"
            ),
        }
    )
    resolved = project.resolve("repro.runner.use", "pick")
    assert resolved is not None
    assert (resolved.kind, resolved.target) == (
        "function",
        "repro.core.mes.choose",
    )


def test_init_reexport_chain_resolves() -> None:
    # core/__init__.py re-exports from core.mes; the user imports from
    # the package, not the defining module.
    project = build_project(
        {
            "src/repro/core/mes.py": "def choose():\n    return 1\n",
            "src/repro/core/__init__.py": "from repro.core.mes import choose\n",
            "src/repro/runner/use.py": "from repro.core import choose\n",
        }
    )
    resolved = project.resolve("repro.runner.use", "choose")
    assert resolved is not None
    assert (resolved.kind, resolved.target) == (
        "function",
        "repro.core.mes.choose",
    )


def test_reexport_cycle_is_resolved_or_none_not_hung() -> None:
    # Mutually re-exporting __init__ files must not recurse forever.
    project = build_project(
        {
            "src/repro/core/__init__.py": "from repro.engine import thing\n",
            "src/repro/engine/__init__.py": "from repro.core import thing\n",
            "src/repro/runner/use.py": "from repro.core import thing\n",
        }
    )
    # No definition anywhere on the cycle: resolution must terminate
    # without claiming a project function or class.
    resolved = project.resolve("repro.runner.use", "thing")
    assert resolved is None or resolved.kind not in ("function", "class")


def test_relative_import_absolutized() -> None:
    project = build_project(
        {
            "src/repro/core/mes.py": "def choose():\n    return 1\n",
            "src/repro/core/helper.py": "from .mes import choose\n",
        }
    )
    resolved = project.resolve("repro.core.helper", "choose")
    assert resolved is not None
    assert resolved.target == "repro.core.mes.choose"


def test_import_cycle_modules_both_resolve() -> None:
    # a imports b at module level, b imports a inside a function — the
    # standard cycle-breaking idiom; both directions must resolve.
    project = build_project(
        {
            "src/repro/core/a.py": """
            from repro.core.b import g

            def f():
                return g()
            """,
            "src/repro/core/b.py": """
            def g():
                from repro.core.a import f
                return f
            """,
        }
    )
    resolved = project.resolve("repro.core.a", "g")
    assert resolved is not None
    assert resolved.target == "repro.core.b.g"
    edges = project.modules["repro.core.b"].imports
    assert any(e.target == "repro.core.a" and e.function_level for e in edges)


def test_type_checking_imports_flagged_as_such() -> None:
    project = build_project(
        {
            "src/repro/engine/pipe.py": """
            from typing import TYPE_CHECKING

            if TYPE_CHECKING:
                from repro.core.mes import MES
            """,
        }
    )
    edges = project.modules["repro.engine.pipe"].imports
    targets = {e.target: e.type_checking for e in edges}
    assert targets["repro.core.mes"] is True


def test_decorated_function_registered_with_decorator_names() -> None:
    project = build_project(
        {
            "src/repro/utils/tools.py": """
            import functools

            def wrap(fn):
                return fn

            @wrap
            @functools.lru_cache(maxsize=8)
            def helper():
                return 1
            """,
        }
    )
    info = project.functions["repro.utils.tools.helper"]
    assert "wrap" in info.decorators
    assert "functools.lru_cache" in info.decorators


def test_nested_defs_and_lambdas_have_qualnames() -> None:
    project = build_project(
        {
            "src/repro/utils/n.py": """
            def outer():
                def inner():
                    return 1
                fn = lambda x: x
                return inner() + fn(1)
            """,
        }
    )
    assert "repro.utils.n.outer.<locals>.inner" in project.functions
    lambdas = [q for q in project.functions if "<lambda" in q]
    assert len(lambdas) == 1
    assert lambdas[0].startswith("repro.utils.n.outer.<locals>.<lambda")


def test_method_lookup_through_base_class() -> None:
    project = build_project(
        {
            "src/repro/ensembling/base.py": """
            class Fusion:
                def fuse(self):
                    return 0
            """,
            "src/repro/ensembling/wbf.py": """
            from repro.ensembling.base import Fusion

            class WBF(Fusion):
                pass
            """,
        }
    )
    assert (
        project.method("repro.ensembling.wbf.WBF", "fuse")
        == "repro.ensembling.base.Fusion.fuse"
    )


def test_layer_of() -> None:
    project = build_project({"src/repro/core/mes.py": "X = 1\n"})
    assert project.layer_of("repro.core.mes") == "core"
    assert project.layer_of("repro") == "root"
    assert project.layer_of("repro.cli") == "cli"
    assert project.layer_of("tests.test_mes") is None


# ---------------------------------------------------------------------------
# call graph


def test_call_edge_through_alias_and_reexport() -> None:
    project, graph = build_graph(
        {
            "src/repro/core/mes.py": "def choose():\n    return 1\n",
            "src/repro/core/__init__.py": "from repro.core.mes import choose\n",
            "src/repro/runner/use.py": """
            from repro.core import choose

            def go():
                return choose()
            """,
        }
    )
    callees = {s.callee for s in graph.callees("repro.runner.use.go")}
    assert callees == {"repro.core.mes.choose"}
    callers = {s.caller for s in graph.callers("repro.core.mes.choose")}
    assert callers == {"repro.runner.use.go"}


def test_self_method_call_resolves_through_base() -> None:
    project, graph = build_graph(
        {
            "src/repro/ensembling/m.py": """
            class Base:
                def helper(self):
                    return 1

            class Child(Base):
                def run(self):
                    return self.helper()
            """,
        }
    )
    callees = {s.callee for s in graph.callees("repro.ensembling.m.Child.run")}
    assert callees == {"repro.ensembling.m.Base.helper"}


def test_local_constructor_type_inference() -> None:
    project, graph = build_graph(
        {
            "src/repro/engine/store.py": """
            class Store:
                def put(self, key):
                    return key
            """,
            "src/repro/runner/use.py": """
            from repro.engine.store import Store

            def go():
                store = Store()
                return store.put(1)
            """,
        }
    )
    callees = {s.callee for s in graph.callees("repro.runner.use.go")}
    assert "repro.engine.store.Store.put" in callees


def test_constructor_call_resolves_to_init() -> None:
    project, graph = build_graph(
        {
            "src/repro/engine/store.py": """
            class Store:
                def __init__(self):
                    self.data = {}
            """,
            "src/repro/runner/use.py": """
            from repro.engine.store import Store

            def go():
                return Store()
            """,
        }
    )
    callees = {s.callee for s in graph.callees("repro.runner.use.go")}
    assert callees == {"repro.engine.store.Store.__init__"}


def test_nested_def_call_preferred_over_module_global() -> None:
    project, graph = build_graph(
        {
            "src/repro/utils/n.py": """
            def helper():
                return "module"

            def outer():
                def helper():
                    return "nested"
                return helper()
            """,
        }
    )
    callees = {s.callee for s in graph.callees("repro.utils.n.outer")}
    assert callees == {"repro.utils.n.outer.<locals>.helper"}


def test_def_in_function_body_owns_its_calls() -> None:
    project, graph = build_graph(
        {
            "src/repro/utils/n.py": """
            def helper():
                return "module"

            def outer():
                def inner():
                    return helper()
                return inner
            """,
        }
    )
    assert graph.callees("repro.utils.n.outer") == ()
    callees = {s.callee for s in graph.callees("repro.utils.n.outer.<locals>.inner")}
    assert callees == {"repro.utils.n.helper"}


def test_recursive_cycle_edges_exist() -> None:
    project, graph = build_graph(
        {
            "src/repro/utils/r.py": """
            def even(n):
                return n == 0 or odd(n - 1)

            def odd(n):
                return n != 0 and even(n - 1)
            """,
        }
    )
    assert {s.callee for s in graph.callees("repro.utils.r.even")} == {
        "repro.utils.r.odd"
    }
    assert {s.callee for s in graph.callees("repro.utils.r.odd")} == {
        "repro.utils.r.even"
    }


def test_external_calls_produce_no_edges() -> None:
    project, graph = build_graph(
        {
            "src/repro/utils/x.py": """
            import numpy as np

            def go():
                return np.mean([1.0]) + len([1]) + sorted([2])[0]
            """,
        }
    )
    assert graph.callees("repro.utils.x.go") == ()


# ---------------------------------------------------------------------------
# layer config parsing


def test_default_layers_form_a_dag() -> None:
    # Every referenced layer is declared, and the declaration order admits
    # a topological order (no layer reachable from itself).
    for layer, allowed in DEFAULT_LAYERS.items():
        for dep in allowed:
            assert dep in DEFAULT_LAYERS, f"{layer} -> undeclared {dep}"

    def reachable(start: str) -> set[str]:
        seen: set[str] = set()
        stack = [start]
        while stack:
            current = stack.pop()
            for dep in DEFAULT_LAYERS.get(current, ()):
                if dep not in seen:
                    seen.add(dep)
                    stack.append(dep)
        return seen

    for layer in DEFAULT_LAYERS:
        assert layer not in reachable(layer), f"cycle through {layer}"


def test_pyproject_table_does_not_change_findings(tmp_path) -> None:
    # The layer DAG is DEFAULT_LAYERS alone: a [tool.repro-lint] table
    # in a pyproject.toml above the tree is not read.
    module = tmp_path / "src" / "repro" / "core" / "x.py"
    module.parent.mkdir(parents=True)
    module.write_text("import repro.engine\n", encoding="utf-8")
    without = lint_paths([tmp_path / "src"], jobs=1)
    (tmp_path / "pyproject.toml").write_text(
        "[tool.repro-lint.layers]\ncore = []\n", encoding="utf-8"
    )
    assert lint_paths([tmp_path / "src"], jobs=1) == without
    assert without.violations == ()


def test_lint_config_default_dag() -> None:
    assert LintConfig().layers is DEFAULT_LAYERS
    custom = LintConfig(layers={"a": ()})
    assert custom.layers == {"a": ()}
