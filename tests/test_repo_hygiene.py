"""Repository hygiene: no tracked bytecode, no stale doc pointers.

PR 6 accidentally committed 98 ``__pycache__/*.pyc`` files.  This guard
fails tier-1 if any compiled bytecode (or a ``__pycache__`` directory)
ever lands in the git index again, and checks that ``.gitignore`` keeps
ignoring the patterns that caused it.  No file that ``.gitignore``
ignores (a stale ``*.egg-info/`` build artifact, say) may be tracked
either.

The user-facing docs cite Makefile targets and benchmark files by name;
a deleted target or bench must take its citations with it.  Every
committed file under ``benchmarks/results/`` is a table some generator
still writes, so ``make results`` regenerates all of them.
"""

from __future__ import annotations

import re
import shutil
import subprocess
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        check=True,
    ).stdout


def _tracked_files() -> list[str]:
    return _git("ls-files").splitlines()


@pytest.fixture(scope="module")
def in_git_repo() -> None:
    if shutil.which("git") is None:
        pytest.skip("git not available")
    if not (REPO_ROOT / ".git").exists():
        pytest.skip("not running from a git checkout")


def test_no_tracked_bytecode(in_git_repo: None) -> None:
    offenders = [
        path
        for path in _tracked_files()
        if path.endswith((".pyc", ".pyo")) or "__pycache__" in path.split("/")
    ]
    assert not offenders, (
        "compiled bytecode is tracked by git (run `git rm -r --cached` on it):\n"
        + "\n".join(offenders[:20])
    )


def test_no_tracked_ignored_files(in_git_repo: None) -> None:
    offenders = _git("ls-files", "-ci", "--exclude-standard").splitlines()
    assert not offenders, (
        "files that .gitignore ignores are tracked (run `git rm -r "
        "--cached` on them):\n" + "\n".join(offenders[:20])
    )


def test_gitignore_covers_bytecode(in_git_repo: None) -> None:
    gitignore = REPO_ROOT / ".gitignore"
    assert gitignore.exists(), ".gitignore is missing"
    patterns = {line.strip() for line in gitignore.read_text().splitlines()}
    assert "__pycache__/" in patterns
    assert "*.pyc" in patterns


def _doc_files() -> list[Path]:
    return [REPO_ROOT / "README.md", REPO_ROOT / "EXPERIMENTS.md",
            REPO_ROOT / "DESIGN.md", *sorted((REPO_ROOT / "docs").glob("*.md"))]


def test_docs_cite_existing_make_targets() -> None:
    makefile = (REPO_ROOT / "Makefile").read_text()
    targets = set(re.findall(r"^([\w.-]+)\s*:(?!=)", makefile, re.MULTILINE))
    stale = [
        f"{doc.relative_to(REPO_ROOT)}: make {target}"
        for doc in _doc_files()
        for command in re.findall(r"`make ([^`]*)`", doc.read_text())
        for target in command.split()
        if target not in targets
    ]
    assert not stale, "docs cite missing Makefile targets:\n" + "\n".join(stale)


def test_docs_cite_existing_benchmark_files() -> None:
    stale = [
        f"{doc.relative_to(REPO_ROOT)}: {path}"
        for doc in _doc_files()
        for path in re.findall(r"benchmarks/[\w./-]*", doc.read_text())
        if not (REPO_ROOT / path.rstrip(".")).exists()
    ]
    assert not stale, "docs cite missing benchmark files:\n" + "\n".join(stale)


def test_committed_results_have_a_generator(in_git_repo: None) -> None:
    sources = "\n".join(
        path.read_text() for path in (REPO_ROOT / "benchmarks").glob("*.py")
    )
    written = {
        f"benchmarks/results/{name}.txt"
        for name in re.findall(r"\bsave\(\s*\"([\w-]+)\"", sources)
    } | {
        f"benchmarks/results/{name}.csv"
        for name in re.findall(r"\bsave_data\(\s*\"([\w-]+)\"", sources)
    }
    orphans = sorted(set(_git("ls-files", "benchmarks/results").splitlines())
                     - written)
    assert not orphans, (
        "committed results that no save()/save_data() call writes:\n"
        + "\n".join(orphans[:20])
    )
