"""Directive comments: which ones a file holds, and when it is tokenized.

``FileContext.directives`` tokenizes a file only when its text names the
directive marker.  These tests pin that the gate drops nothing a full
``tokenize`` scan finds, on a fixture of the tricky cases and on every
real file the repo and the benchmark's pinned corpus hold, and that a
lint run tokenizes only files that name a directive.
"""

from __future__ import annotations

import io
import tarfile
import tokenize
from collections.abc import Callable, Iterator
from pathlib import Path

import pytest

from repro.lint import FileContext, lint_paths
from repro.lint.base import DIRECTIVE_MARKER_RE, DISABLE_COMMENT_RE, Comment
from repro.lint.cache import LintCache
from repro.lint.project import LintConfig
from repro.lint.rules import BlanketSuppressionRule

REPO_ROOT = Path(__file__).resolve().parent.parent
CORPUS = REPO_ROOT / "benchmarks" / "e2e" / "lint_corpus.tar.xz"

#: The patterns directives are read with; the marker must cover each.
DIRECTIVE_PATTERNS = (
    DISABLE_COMMENT_RE,
    BlanketSuppressionRule._TYPE_IGNORE,
    BlanketSuppressionRule._BARE_NOQA,
)

#: ``#`` in single-quoted, triple-quoted, raw, bytes and f-strings, a
#: comment between the pieces of an implicitly concatenated string, and
#: the spellings of each directive.
FIXTURE = r"""
import re

QUOTES = ('#', "# noqa", '''# type: ignore''', '''
# repro-lint: disable=all
''')
RAW = r"\d+ # noqa"
BYTES = b"# type: ignore"
WIDTH = f"{QUOTES!r:#>8}"  # noqa: E501
CENTRED = f"{RAW:#^9} # noqa"
JOINED = (
    "# noqa"  # repro-lint: disable=RPR003 -- a comment between the pieces
    "# type: ignore"
)
a = 1  # NOQA
b = 2  #noqa:E501
c = 3  #type:ignore
d = 4  # type:  ignore[x]
e = 5  #repro-lint:disable=all -- why
# an own-line comment without a marker
f = re.compile("#")  # a trailing comment without a marker
""".lstrip()


def reference_directives(source: str) -> list[Comment]:
    """A full ``tokenize`` scan: every comment that names the marker or
    matches a directive pattern."""
    found: list[Comment] = []
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type != tokenize.COMMENT:
            continue
        text = token.string
        if DIRECTIVE_MARKER_RE.search(text) or any(
            pattern.search(text) for pattern in DIRECTIVE_PATTERNS
        ):
            found.append(Comment(line=token.start[0], col=token.start[1], text=text))
    return found


def directives(source: str, path: str = "fixture.py") -> list[Comment]:
    return list(FileContext.from_source(source, path).directives)


def count_tokenize(monkeypatch: pytest.MonkeyPatch) -> list[int]:
    """Record one entry per ``tokenize.generate_tokens`` pass."""
    passes: list[int] = []
    original = tokenize.generate_tokens

    def counting(readline: Callable[[], str]) -> Iterator[tokenize.TokenInfo]:
        passes.append(1)
        return original(readline)

    monkeypatch.setattr(tokenize, "generate_tokens", counting)
    return passes


def test_fixture_directives_match_full_scan() -> None:
    found = directives(FIXTURE)
    assert found == reference_directives(FIXTURE)
    assert [comment.text for comment in found] == [
        "# noqa: E501",
        "# repro-lint: disable=RPR003 -- a comment between the pieces",
        "# NOQA",
        "#noqa:E501",
        "#type:ignore",
        "# type:  ignore[x]",
        "#repro-lint:disable=all -- why",
    ]
    assert (found[0].line, found[0].col) == (8, 27)


def test_marker_in_a_string_is_not_a_directive() -> None:
    assert directives('BANNER = "# noqa"\n') == []


def test_file_without_marker_is_not_tokenized(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    passes = count_tokenize(monkeypatch)
    ctx = FileContext.from_source("# a comment\nx = 1  # another\n", "plain.py")
    assert ctx.directives == ()
    assert passes == []
    marked = FileContext.from_source("x = 1  # noqa: E501\n", "marked.py")
    assert [comment.text for comment in marked.directives] == ["# noqa: E501"]
    # A second read is served from the first: still one pass.
    assert marked.directives == marked.directives
    assert len(passes) == 1


@pytest.mark.parametrize("top", ["src", "tests", "benchmarks", "examples"])
def test_directives_match_full_scan_on_repo(top: str) -> None:
    paths = sorted((REPO_ROOT / top).rglob("*.py"))
    assert paths
    for path in paths:
        source = path.read_text(encoding="utf-8")
        assert directives(source, path.as_posix()) == reference_directives(
            source
        ), path


def test_directives_match_full_scan_on_corpus() -> None:
    checked = 0
    with tarfile.open(CORPUS, "r:xz") as archive:
        for member in archive.getmembers():
            if not (member.isfile() and member.name.endswith(".py")):
                continue
            handle = archive.extractfile(member)
            assert handle is not None
            source = handle.read().decode("utf-8")
            assert directives(source, member.name) == reference_directives(
                source
            ), member.name
            checked += 1
    assert checked == 186


LEAK = "def load(path):\n{disable}    handle = open(path)\n    return handle.read()\n"
SUPPRESSED_LEAK = LEAK.format(
    disable="    # repro-lint: disable=RPR008 -- the caller's finalizer closes it\n"
)


def write_package(root: Path, files: dict[str, str]) -> Path:
    package = root / "src" / "repro" / "engine"
    package.mkdir(parents=True, exist_ok=True)
    for name, source in files.items():
        (package / name).write_text(source, encoding="utf-8")
    return root / "src"


def plain_files() -> dict[str, str]:
    return {
        f"plain_{index}.py": (
            f"# helper {index}\ndef helper_{index}(x):\n"
            f"    return x + {index}  # plain\n"
        )
        for index in range(3)
    }


def test_lint_paths_tokenizes_only_files_naming_a_directive(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch
) -> None:
    marked = {"marked.py": "x = [1]  # type: ignore[assignment]\n"}
    src = write_package(tmp_path / "clean", {**plain_files(), **marked})
    passes = count_tokenize(monkeypatch)
    result = lint_paths([src], jobs=1, config=LintConfig())
    assert (result.files_checked, result.violations) == (4, ())
    assert len(passes) == 1

    # A project-rule finding is checked against its file's suppressions.
    # The whole-program phase reads the context the per-file phase
    # parsed, whose directives RPR005 already collected: no second pass.
    leak = {"marked.py": SUPPRESSED_LEAK}
    src = write_package(tmp_path / "leak", {**plain_files(), **leak})
    passes.clear()
    result = lint_paths([src], jobs=1, config=LintConfig())
    assert (result.files_checked, result.violations) == (4, ())
    assert len(passes) == 1


@pytest.mark.parametrize("jobs", [1, 2])
def test_project_finding_suppression_through_lint_paths(
    tmp_path: Path, jobs: int
) -> None:
    src = write_package(
        tmp_path,
        {"kept.py": SUPPRESSED_LEAK, "leaky.py": LEAK.format(disable="")},
    )
    cache = LintCache(tmp_path / "cache")
    runs = [
        lint_paths([src], jobs=jobs, config=LintConfig()),
        lint_paths([src], jobs=jobs, config=LintConfig(), cache=cache),
        lint_paths([src], jobs=jobs, config=LintConfig(), cache=cache),
    ]
    assert (cache.project_misses, cache.project_hits) == (1, 1)
    for result in runs:
        assert [(v.path, v.line, v.rule_id) for v in result.violations] == [
            ((src / "repro" / "engine" / "leaky.py").as_posix(), 2, "RPR008")
        ]
