"""Shared helpers for the paper-artifact generators.

Every benchmark regenerates one of the paper's tables or figures, prints
it, and also writes it to ``benchmarks/results/<name>.txt`` so the output
survives pytest's capture.  Run with::

    pytest benchmarks/

Each table is computed once; the tables are the output and nothing here
is timed (wall time is measured by ``perfbench/``).
"""

from __future__ import annotations

from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


def save_result(name: str, text: str) -> None:
    """Print a result table and persist it under results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n{text}\n")


def save_csv(name: str, headers, rows) -> None:
    """Persist plot-ready CSV data under benchmarks/results/."""
    from repro.analysis import to_csv

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.csv").write_text(to_csv(headers, rows))


@pytest.fixture
def save():
    return save_result


@pytest.fixture
def save_data():
    return save_csv
