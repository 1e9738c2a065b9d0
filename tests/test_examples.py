"""Smoke tests for the example scripts.

Each example must import, expose a ``main()`` and carry a module docstring.
These tests do not run the examples' bodies; CI runs every
``examples/*.py`` end to end in its own step.
"""

import importlib.util
import pathlib

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"
EXAMPLE_FILES = sorted(EXAMPLES_DIR.glob("*.py"))


def load_module(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestExamples:
    def test_examples_exist(self):
        names = {p.name for p in EXAMPLE_FILES}
        expected = {
            "quickstart.py",
            "autonomous_driving.py",
            "surveillance_drift.py",
            "budgeted_ingestion.py",
            "video_queries.py",
            "fusion_comparison.py",
            "tracked_analytics.py",
        }
        assert expected.issubset(names)

    @pytest.mark.parametrize(
        "path", EXAMPLE_FILES, ids=[p.stem for p in EXAMPLE_FILES]
    )
    def test_example_imports_and_has_main(self, path):
        module = load_module(path)
        assert callable(getattr(module, "main", None)), path.name

    @pytest.mark.parametrize(
        "path", EXAMPLE_FILES, ids=[p.stem for p in EXAMPLE_FILES]
    )
    def test_example_has_module_docstring(self, path):
        module = load_module(path)
        assert module.__doc__ and len(module.__doc__.strip()) > 40, path.name
