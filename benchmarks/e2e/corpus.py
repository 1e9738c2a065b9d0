"""The pinned lint corpus: a fixed commit's tree, committed as an archive.

``lint-cold`` lints this tree rather than the checkout's own, so that new
product code cannot move lint time; only changes to the linter can.  The
archive is the output of ``git archive`` at :data:`COMMIT`, committed
because the benchmark runs in checkouts that carry no git history.
Rebuild (and re-check) it from a clone with full history::

    PYTHONPATH=src:. python -m benchmarks.e2e.corpus
"""

from __future__ import annotations

import lzma
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

__all__ = ["COMMIT", "LINT_PATHS", "FILES", "CorpusError", "extract", "make_archive"]

#: The commit whose tree is linted.
COMMIT = "fbd02094689e63078f3fdcb548c002cc9617782f"

#: What ``lint-cold`` lints, relative to the extracted tree.
LINT_PATHS: tuple[str, ...] = ("src", "tests", "benchmarks")

#: Python files under :data:`LINT_PATHS` at :data:`COMMIT`.
FILES = 186

#: ``pyproject.toml`` carries the linter's layer and persistence config.
_ARCHIVED_PATHS = (*LINT_PATHS, "pyproject.toml")

ARCHIVE = Path(__file__).with_name("lint_corpus.tar.xz")


class CorpusError(RuntimeError):
    """The corpus cannot be built or does not hold the pinned tree."""


def _count_files(root: Path) -> int:
    return sum(1 for path in LINT_PATHS for _ in (root / path).rglob("*.py"))


def extract(dest: Path, archive: Path = ARCHIVE) -> Path:
    """Unpack the corpus into ``dest`` and check its file count."""
    with tarfile.open(archive, "r:xz") as tar:
        tar.extractall(dest, filter="data")
    found = _count_files(dest)
    if found != FILES:
        raise CorpusError(
            f"{archive.name} holds {found} Python files under "
            f"{'/'.join(LINT_PATHS)}, expected {FILES}"
        )
    return dest


def make_archive(repo: Path, archive: Path = ARCHIVE) -> None:
    """Rebuild ``archive`` with ``git archive`` from ``repo`` at :data:`COMMIT`.

    Raises:
        CorpusError: If ``repo`` lacks the commit, as a shallow clone
            does, or the archived tree does not hold :data:`FILES` files.
    """
    probe = subprocess.run(
        ["git", "-C", str(repo), "cat-file", "-e", f"{COMMIT}^{{commit}}"],
        capture_output=True,
    )
    if probe.returncode != 0:
        raise CorpusError(
            f"commit {COMMIT} is not in {repo}; a shallow clone lacks it. "
            "Fetch the full history (git fetch --unshallow) and retry."
        )
    tar = subprocess.run(
        ["git", "-C", str(repo), "archive", "--format=tar", COMMIT, *_ARCHIVED_PATHS],
        capture_output=True,
        check=True,
    ).stdout
    with tempfile.TemporaryDirectory() as tmp:
        candidate = Path(tmp) / archive.name
        candidate.write_bytes(lzma.compress(tar, preset=9 | lzma.PRESET_EXTREME))
        extract(Path(tmp) / "tree", candidate)
        archive.write_bytes(candidate.read_bytes())


if __name__ == "__main__":
    try:
        make_archive(Path.cwd())
    except CorpusError as exc:
        sys.exit(f"error: {exc}")
    print(f"{ARCHIVE} rebuilt from {COMMIT} ({FILES} files)")
