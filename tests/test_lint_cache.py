"""Incremental cache behaviour: hits, invalidation, byte-identity.

The contract under test (see ``src/repro/lint/cache.py``): findings are
byte-identical with or without the cache and for any ``--jobs`` value;
cache keys fold in file content, the config fingerprint, the analyzer
version and the active rule/select sets, so every invalidation is
constructive (a changed ingredient simply produces a fresh key); and a
corrupt entry degrades to a miss, never to wrong findings.
"""

from __future__ import annotations

from pathlib import Path
from textwrap import dedent

from repro.lint.baseline import violation_fingerprint, write_baseline
from repro.lint.cache import LintCache
from repro.lint.engine import LintResult, lint_paths
from repro.lint.project import LintConfig
from repro.lint.report import render_json, render_sarif, render_text

CONFIG = LintConfig()


def write_tree(root: Path) -> list[Path]:
    """A small mixed tree: clean files plus one RPR001 offender."""
    package = root / "src" / "repro" / "core"
    package.mkdir(parents=True)
    files: list[Path] = []
    for index in range(4):
        clean = package / f"clean_{index}.py"
        clean.write_text(
            f"def helper_{index}(x):\n    return x + {index}\n",
            encoding="utf-8",
        )
        files.append(clean)
    offender = package / "offender.py"
    offender.write_text(
        dedent(
            """
            import random

            def draw(key):
                return random.random()
            """
        ).lstrip(),
        encoding="utf-8",
    )
    files.append(offender)
    return files


def run(
    root: Path,
    cache: LintCache | None = None,
    jobs: int = 1,
    select: set[str] | None = None,
) -> LintResult:
    return lint_paths([root], select=select, jobs=jobs, config=CONFIG, cache=cache)


def test_cold_then_warm_hits_everything(tmp_path: Path) -> None:
    files = write_tree(tmp_path)
    cache = LintCache(tmp_path / "cache")

    cold = run(tmp_path, cache)
    assert cache.file_hits == 0
    assert cache.file_misses == len(files)
    assert cache.project_hits == 0
    assert cache.project_misses == 1

    warm_cache = LintCache(tmp_path / "cache")
    warm = run(tmp_path, warm_cache)
    assert warm_cache.file_hits == len(files)
    assert warm_cache.file_misses == 0
    assert warm_cache.project_hits == 1
    assert warm_cache.project_misses == 0
    assert warm == cold


def test_cold_and_warm_reports_are_byte_identical(tmp_path: Path) -> None:
    write_tree(tmp_path)
    cold = run(tmp_path, LintCache(tmp_path / "cache"))
    warm = run(tmp_path, LintCache(tmp_path / "cache"))
    uncached = run(tmp_path)
    for render in (render_text, render_json, render_sarif):
        assert render(cold) == render(warm) == render(uncached)


def test_file_edit_invalidates_only_that_file_and_the_project(
    tmp_path: Path,
) -> None:
    files = write_tree(tmp_path)
    run(tmp_path, LintCache(tmp_path / "cache"))

    edited = files[0]
    edited.write_text(
        "def helper_0(x):\n    return x - 1\n", encoding="utf-8"
    )
    cache = LintCache(tmp_path / "cache")
    result = run(tmp_path, cache)
    # Only the edited file recomputes; the project phase always keys over
    # every file's digest, so one edit anywhere invalidates it too.
    assert cache.file_misses == 1
    assert cache.file_hits == len(files) - 1
    assert cache.project_misses == 1
    assert result == run(tmp_path)


def test_config_change_invalidates_everything(tmp_path: Path) -> None:
    files = write_tree(tmp_path)
    run(tmp_path, LintCache(tmp_path / "cache"))

    cache = LintCache(tmp_path / "cache")
    other = LintConfig(persistence=("core",))
    lint_paths([tmp_path], config=other, cache=cache)
    assert cache.file_hits == 0
    assert cache.file_misses == len(files)
    assert cache.project_misses == 1


def test_analyzer_version_bump_invalidates_everything(
    tmp_path: Path, monkeypatch
) -> None:
    files = write_tree(tmp_path)
    run(tmp_path, LintCache(tmp_path / "cache"))

    # jobs=1 keeps everything in-process so the monkeypatch is visible.
    monkeypatch.setattr("repro.lint.cache.ANALYZER_VERSION", "test-bump")
    cache = LintCache(tmp_path / "cache")
    result = run(tmp_path, cache)
    assert cache.file_hits == 0
    assert cache.file_misses == len(files)
    assert cache.project_misses == 1
    assert result == run(tmp_path)


def test_select_sets_use_distinct_keys(tmp_path: Path) -> None:
    files = write_tree(tmp_path)
    narrow = run(tmp_path, LintCache(tmp_path / "cache"), select={"RPR001"})

    # A full run must not be served from the narrow run's entries.
    cache = LintCache(tmp_path / "cache")
    full = run(tmp_path, cache)
    assert cache.file_hits == 0
    assert cache.file_misses == len(files)
    assert full == run(tmp_path)
    assert narrow == run(tmp_path, select={"RPR001"})


def test_corrupt_entries_degrade_to_misses(tmp_path: Path) -> None:
    write_tree(tmp_path)
    cache_dir = tmp_path / "cache"
    expected = run(tmp_path, LintCache(cache_dir))

    for entry in cache_dir.glob("*.json"):
        entry.write_text("{not json", encoding="utf-8")
    cache = LintCache(cache_dir)
    assert run(tmp_path, cache) == expected
    assert cache.file_hits == 0
    # The recompute heals the entries in place.
    healed = LintCache(cache_dir)
    assert run(tmp_path, healed) == expected
    assert healed.file_misses == 0


def test_jobs_and_cache_compose(tmp_path: Path) -> None:
    write_tree(tmp_path)
    serial = run(tmp_path)
    cold_jobs = run(tmp_path, LintCache(tmp_path / "cache"), jobs=4)
    warm_jobs = run(tmp_path, LintCache(tmp_path / "cache"), jobs=4)
    assert serial == cold_jobs == warm_jobs
    for render in (render_text, render_json, render_sarif):
        assert render(serial) == render(cold_jobs) == render(warm_jobs)


def test_select_narrows_alike_for_any_jobs(tmp_path: Path) -> None:
    package = tmp_path / "src" / "repro" / "core"
    package.mkdir(parents=True)
    for name in ("first", "second"):
        (package / f"{name}.py").write_text(
            "import random\n\ndef draw():\n    return random.random()\n",
            encoding="utf-8",
        )
    runs = [
        lint_paths(
            [tmp_path / "src"], select={"RPR001"}, jobs=jobs, config=CONFIG
        )
        for jobs in (1, 2)
    ]
    for result in runs:
        assert [(Path(v.path).name, v.rule_id) for v in result.violations] == [
            ("first.py", "RPR001"),
            ("second.py", "RPR001"),
        ]
    assert runs[0] == runs[1]


def test_missing_cache_dir_parent_degrades_gracefully(tmp_path: Path) -> None:
    write_tree(tmp_path)
    # A cache rooted somewhere creatable-but-absent just gets created;
    # results match the uncached run either way.
    nested = tmp_path / "a" / "b" / "cache"
    assert run(tmp_path, LintCache(nested)) == run(tmp_path)
    assert nested.is_dir()


def test_baseline_fingerprints_stable_across_modes(tmp_path: Path) -> None:
    write_tree(tmp_path)
    runs = [
        run(tmp_path),
        run(tmp_path, LintCache(tmp_path / "cache")),
        run(tmp_path, LintCache(tmp_path / "cache")),
        run(tmp_path, LintCache(tmp_path / "cache"), jobs=4),
        run(tmp_path, jobs=4),
    ]
    fingerprints = [
        [violation_fingerprint(v) for v in result.violations] for result in runs
    ]
    assert all(prints == fingerprints[0] for prints in fingerprints)

    # And the serialized baseline file itself is byte-identical.
    texts = []
    for index, result in enumerate(runs):
        target = tmp_path / f"baseline_{index}.json"
        write_baseline(target, result.violations)
        texts.append(target.read_text(encoding="utf-8"))
    assert all(text == texts[0] for text in texts)


def test_stale_analyzer_version_entries_are_not_served(
    tmp_path: Path, monkeypatch
) -> None:
    """Entries written by the previous analyzer release (version "1",
    before the effect fixpoint existed) must never satisfy a lookup from
    the current release."""
    files = write_tree(tmp_path)
    monkeypatch.setattr("repro.lint.cache.ANALYZER_VERSION", "1")
    run(tmp_path, LintCache(tmp_path / "cache"))
    monkeypatch.undo()

    cache = LintCache(tmp_path / "cache")
    result = run(tmp_path, cache)
    assert cache.file_hits == 0
    assert cache.file_misses == len(files)
    assert cache.project_misses == 1
    assert result == run(tmp_path)


def test_new_rule_ids_invalidate_file_and_project_entries(
    tmp_path: Path,
) -> None:
    """A cache populated without RPR013-015 in the rule set cannot serve
    a run that has them: the environment key folds in every active rule
    ID, so growing the rule set is constructively invalidating."""
    from repro.lint.project_rules import ALL_PROJECT_RULES

    files = write_tree(tmp_path)
    legacy = tuple(
        rule
        for rule in ALL_PROJECT_RULES
        if rule.rule_id not in {"RPR013", "RPR014", "RPR015"}
    )
    legacy_cache = LintCache(tmp_path / "cache")
    lint_paths(
        [tmp_path], config=CONFIG, cache=legacy_cache, project_rules=legacy
    )
    assert legacy_cache.file_misses == len(files)

    cache = LintCache(tmp_path / "cache")
    result = run(tmp_path, cache)
    assert cache.file_hits == 0
    assert cache.file_misses == len(files)
    assert cache.project_misses == 1
    assert result == run(tmp_path)


def test_effect_rule_findings_cache_byte_identically(tmp_path: Path) -> None:
    """RPR015 findings (project-phase, effect-fixpoint-backed) round-trip
    through the cache and --jobs with byte-identical reports."""
    package = tmp_path / "src" / "repro" / "tracking"
    package.mkdir(parents=True)
    (package / "events.py").write_text(
        dedent(
            """
            class EventLog:
                def __init__(self):
                    self._events = []

                def on_batch(self, frames):
                    for frame in frames:
                        self._events.append(frame)
            """
        ).lstrip(),
        encoding="utf-8",
    )
    cold = run(tmp_path, LintCache(tmp_path / "cache"))
    warm = run(tmp_path, LintCache(tmp_path / "cache"))
    warm_jobs = run(tmp_path, LintCache(tmp_path / "cache"), jobs=4)
    uncached = run(tmp_path)
    assert [v.rule_id for v in cold.violations] == ["RPR015"]
    for render in (render_text, render_json, render_sarif):
        assert (
            render(cold)
            == render(warm)
            == render(warm_jobs)
            == render(uncached)
        )
