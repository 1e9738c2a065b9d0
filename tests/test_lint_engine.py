"""What ``lint_paths`` does besides running rules: how often it parses a
file, which files it finds, how many workers it starts, and what it
leaves to the cyclic garbage collector.

A serial run parses each file once and hands the same context to both
phases; a cache entry spares the parse of every phase it serves.  File
discovery filters only the directories below the one it is given.  A
``jobs`` run starts no more workers than there are files to lint; the
pool here is a stand-in that maps in-process, so no test starts one.
The collector is paused for the call and left as the caller had it, and
a run builds no reference cycles.
"""

from __future__ import annotations

import gc
from collections.abc import Callable, Iterable, Iterator
from pathlib import Path

import pytest

from repro.lint import CallGraph, FileContext, Project, lint_paths
from repro.lint import engine as lint_engine
from repro.lint.base import Violation
from repro.lint.cache import LintCache
from repro.lint.project import LintConfig, ProjectRule

CONFIG = LintConfig()

REPO_ROOT = Path(__file__).resolve().parent.parent

#: A file-handle leak in ``repro.engine``: one RPR008 project finding.
LEAK = "def load(path):\n    handle = open(path)\n    return handle.read()\n"


def write_package(root: Path, files: dict[str, str]) -> dict[str, Path]:
    package = root / "src" / "repro" / "engine"
    package.mkdir(parents=True, exist_ok=True)
    written = {}
    for name, source in files.items():
        written[name] = package / name
        written[name].write_text(source, encoding="utf-8")
    return written


def mixed_files() -> dict[str, str]:
    """Clean helpers, one file naming a directive and one project finding."""
    files = {
        f"plain_{index}.py": f"def helper_{index}(x):\n    return x + {index}\n"
        for index in range(3)
    }
    files["marked.py"] = "x = [1]  # type: ignore[assignment]\n"
    files["leaky.py"] = LEAK
    return files


@pytest.fixture
def parses(monkeypatch: pytest.MonkeyPatch) -> list[str]:
    """The path of every ``FileContext.from_source`` call, in call order."""
    calls: list[str] = []
    original = FileContext.from_source

    def counting(source: str, path: str) -> FileContext:
        calls.append(path)
        return original(source, path)

    monkeypatch.setattr(FileContext, "from_source", counting)
    return calls


def posix(paths: dict[str, Path]) -> list[str]:
    return sorted(path.as_posix() for path in paths.values())


def rule_ids(violations: tuple[Violation, ...]) -> list[tuple[str, str]]:
    return [(Path(v.path).name, v.rule_id) for v in violations]


def test_serial_uncached_run_parses_each_file_once(
    tmp_path: Path, parses: list[str]
) -> None:
    files = write_package(tmp_path, mixed_files())
    result = lint_paths([tmp_path / "src"], jobs=1, config=CONFIG)
    assert rule_ids(result.violations) == [("leaky.py", "RPR008")]
    assert sorted(parses) == posix(files)


class ProjectKeyCache(LintCache):
    """A cache that remembers the key of each project entry it stores."""

    def __init__(self, root: Path) -> None:
        super().__init__(root)
        self.project_keys: list[str] = []

    def store_project(self, key: str, violations: Iterable[Violation]) -> None:
        self.project_keys.append(key)
        super().store_project(key, violations)


def test_cache_spares_the_parses_of_the_phases_it_serves(
    tmp_path: Path, parses: list[str]
) -> None:
    files = write_package(tmp_path, mixed_files())
    cold_cache = ProjectKeyCache(tmp_path / "cache")
    cold = lint_paths([tmp_path / "src"], jobs=1, config=CONFIG, cache=cold_cache)
    assert sorted(parses) == posix(files)

    # Every per-file entry hits and the project entry is gone: each file
    # is parsed once, by the whole-program phase.
    [key] = cold_cache.project_keys
    for entry in cold_cache.root.glob(f"{key}*"):
        entry.unlink()
    parses.clear()
    cache = LintCache(tmp_path / "cache")
    assert lint_paths([tmp_path / "src"], jobs=1, config=CONFIG, cache=cache) == cold
    assert (cache.file_hits, cache.file_misses) == (len(files), 0)
    assert (cache.project_hits, cache.project_misses) == (0, 1)
    assert sorted(parses) == posix(files)

    # Fully warm: nothing is parsed.
    parses.clear()
    cache = LintCache(tmp_path / "cache")
    assert lint_paths([tmp_path / "src"], jobs=1, config=CONFIG, cache=cache) == cold
    assert (cache.file_hits, cache.project_hits) == (len(files), 1)
    assert parses == []


def test_unparsable_file_is_parsed_once_and_the_project_phase_runs(
    tmp_path: Path, parses: list[str]
) -> None:
    files = write_package(tmp_path, {**mixed_files(), "broken.py": "def (:\n"})
    result = lint_paths([tmp_path / "src"], jobs=1, config=CONFIG)
    assert rule_ids(result.violations) == [
        ("broken.py", "RPR000"),
        ("leaky.py", "RPR008"),
    ]
    assert sorted(parses) == posix(files)


def test_per_file_only_run_parses_each_file_once(
    tmp_path: Path, parses: list[str]
) -> None:
    files = write_package(tmp_path, mixed_files())
    result = lint_paths(
        [tmp_path / "src"], select={"RPR001", "RPR005"}, jobs=1, config=CONFIG
    )
    assert result.violations == ()
    assert sorted(parses) == posix(files)


@pytest.fixture
def pool_sizes(monkeypatch: pytest.MonkeyPatch) -> list[int]:
    """The ``max_workers`` of every pool ``lint_paths`` opens; the pool
    is replaced by one that maps in-process."""
    sizes: list[int] = []

    class InlinePool:
        def __init__(self, max_workers: int) -> None:
            sizes.append(max_workers)

        def __enter__(self) -> InlinePool:
            return self

        def __exit__(self, *exc_info: object) -> None:
            return None

        def map(
            self, fn: Callable[..., object], jobs: list[object], chunksize: int = 1
        ) -> Iterator[object]:
            return map(fn, jobs)

    monkeypatch.setattr(lint_engine, "ProcessPoolExecutor", InlinePool)
    return sizes


@pytest.mark.parametrize(
    ("file_count", "jobs", "expected"),
    [(2, 6, [2]), (5, 2, [2]), (1, 4, []), (5, 1, [])],
)
def test_pool_starts_no_more_workers_than_files(
    tmp_path: Path,
    pool_sizes: list[int],
    file_count: int,
    jobs: int,
    expected: list[int],
) -> None:
    write_package(tmp_path, dict(sorted(mixed_files().items())[:file_count]))
    serial = lint_paths([tmp_path / "src"], jobs=1, config=CONFIG)
    assert lint_paths([tmp_path / "src"], jobs=jobs, config=CONFIG) == serial
    assert pool_sizes == expected


def test_pooled_run_parses_in_the_workers_and_once_in_the_parent(
    tmp_path: Path, pool_sizes: list[int], parses: list[str]
) -> None:
    files = write_package(tmp_path, mixed_files())
    lint_paths([tmp_path / "src"], jobs=2, config=CONFIG)
    assert pool_sizes == [2]
    assert sorted(parses) == sorted(posix(files) * 2)


def hidden_tree(tmp_path: Path) -> tuple[Path, Path]:
    """A project under a dot-directory, with directories inside it that
    discovery skips; returns the project root and its one lintable file."""
    root = tmp_path / ".hidden" / "proj"
    kept = root / "src" / "repro" / "core" / "kept.py"
    skipped = [
        root / "src" / ".venv" / "lib" / "site.py",
        root / "src" / "venv" / "lib" / "site.py",
        root / "src" / "repro" / "__pycache__" / "cached.py",
        root / "src" / "repro" / ".cache" / "dotted.py",
        root / "src" / "node_modules" / "pkg" / "mod.py",
    ]
    for path in (kept, *skipped):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("def f(x):\n    return x\n", encoding="utf-8")
    (root / "docs").mkdir()
    return root, kept


def test_files_under_a_dot_directory_are_found_by_absolute_path(
    tmp_path: Path,
) -> None:
    root, kept = hidden_tree(tmp_path)
    assert list(lint_engine.iter_python_files([root / "src"])) == [kept]
    assert lint_paths([root / "src"], config=CONFIG).files_checked == 1


def test_files_are_found_through_a_parent_path(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch
) -> None:
    root, kept = hidden_tree(tmp_path)
    monkeypatch.chdir(root / "docs")
    found = list(lint_engine.iter_python_files(["../src"]))
    assert [path.resolve() for path in found] == [kept.resolve()]
    assert lint_paths(["../src"], config=CONFIG).files_checked == 1
    monkeypatch.chdir(root)
    assert lint_paths(["src"], config=CONFIG).files_checked == 1


def test_two_spellings_of_one_directory_lint_each_file_once(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch
) -> None:
    files = write_package(tmp_path, mixed_files())
    monkeypatch.chdir(tmp_path)
    found = list(lint_engine.iter_python_files(["src", "src/../src"]))
    # Each file once, under the first spelling that reached it.
    assert [path.as_posix() for path in found] == sorted(
        path.relative_to(tmp_path).as_posix() for path in files.values()
    )
    result = lint_paths(["src", "src/../src"], config=CONFIG)
    assert result.files_checked == len(files)
    assert rule_ids(result.violations) == [("leaky.py", "RPR008")]
    # A ``..`` inside the path names the same modules, so the layering
    # rule sees ``repro.engine`` and the leak is still the one finding.
    dotted = lint_paths(["src/repro/../repro/engine"], config=CONFIG)
    assert rule_ids(dotted.violations) == [("leaky.py", "RPR008")]


class CollectorProbe(ProjectRule):
    """A project rule that records whether the collector is enabled
    when it runs and after it lints ``nested`` from inside."""

    rule_id = "RPR099"

    def __init__(self, nested: Path) -> None:
        self.nested = nested
        self.enabled: list[bool] = []

    def check_project(
        self, project: Project, graph: CallGraph
    ) -> Iterator[Violation]:
        self.enabled.append(gc.isenabled())
        lint_paths([self.nested], config=CONFIG)
        self.enabled.append(gc.isenabled())
        return iter(())


class FailingRule(ProjectRule):
    rule_id = "RPR099"

    def check_project(
        self, project: Project, graph: CallGraph
    ) -> Iterator[Violation]:
        raise RuntimeError("rule failed")


@pytest.mark.parametrize("enabled", [True, False])
def test_lint_paths_leaves_the_collector_as_it_found_it(
    tmp_path: Path, enabled: bool
) -> None:
    write_package(tmp_path, mixed_files())
    if not enabled:
        gc.disable()
    try:
        lint_paths([tmp_path / "src"], config=CONFIG)
        assert gc.isenabled() is enabled
    finally:
        gc.enable()


def test_collector_is_restored_when_a_project_rule_raises(tmp_path: Path) -> None:
    write_package(tmp_path, mixed_files())
    assert gc.isenabled()
    with pytest.raises(RuntimeError, match="rule failed"):
        lint_paths([tmp_path / "src"], project_rules=[FailingRule()], config=CONFIG)
    assert gc.isenabled()


def test_collector_is_paused_while_rules_run_and_a_nested_run_keeps_it_paused(
    tmp_path: Path,
) -> None:
    files = write_package(tmp_path, mixed_files())
    probe = CollectorProbe(files["leaky.py"])
    lint_paths([tmp_path / "src"], project_rules=[probe], config=CONFIG)
    # Paused when the rule runs, and still paused after the nested call
    # returns; the outer call resumes the collector.
    assert probe.enabled == [False, False]
    assert gc.isenabled()


def test_a_lint_run_builds_no_reference_cycles() -> None:
    """Linting the package leaves no cyclic garbage: everything the run
    allocated is freed by reference counting when it returns.  The
    package's files reach RPR003's helpers, RPR007's trace and RPR009's
    layer closure; a recursive local closure among them would hold what
    it read (a file's context, or the project and every tree) in a
    cycle."""
    flags = gc.get_debug()
    gc.collect()
    gc.disable()
    try:
        result = lint_paths([REPO_ROOT / "src" / "repro"], config=CONFIG)
        gc.set_debug(gc.DEBUG_SAVEALL)
        assert gc.collect() == 0
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        gc.enable()
    assert result.files_checked > 0
