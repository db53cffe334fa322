"""Exact pins of the analytical model's headline results.

``data/analytic_pins.json`` holds the 25 Table I cycle counts and, for
every FuSe variant, the Fig. 8(d) ``(baseline_cycles, fuse_cycles)`` pair
of each paper network at each :data:`repro.analysis.scaling.DEFAULT_SIZES`
array.  ``test_regression_pins.py`` guards the speed-ups with bands; this
file asserts equality, so a refactor of the cost model cannot move a
single cycle unnoticed.  A deliberate model change regenerates the file
from ``table1()`` and ``figure_8d(variant=v)`` and says why.
"""

import json
from pathlib import Path

import pytest

from repro.analysis import figure_8d, table1
from repro.core import ALL_VARIANTS

PINS = json.loads(
    (Path(__file__).parent / "data" / "analytic_pins.json").read_text())


def test_table1_cycles_exact():
    rows = [[r.network, r.variant, r.cycles] for r in table1()]
    assert len(rows) == 25
    assert rows == PINS["table1"]


@pytest.mark.parametrize("variant", ALL_VARIANTS, ids=lambda v: v.value)
def test_figure_8d_cycles_exact(variant):
    points = [[p.network, p.size, p.baseline_cycles, p.fuse_cycles]
              for curve in figure_8d(variant=variant).values()
              for p in curve]
    assert len(points) == 30
    assert points == PINS["figure_8d"][variant.value]
