"""Differential tests of ``Design.candidate_rows``' outward row walk
against sorting every row of the die by ``(abs(y - ty), y)``.

The walk must yield exactly the sorted order — for ``ty`` below row 0,
above the top row, on integers and half-integers (where two rows tie),
with power alignment on and off, for cells 1-4 rows tall — and
``nearest_position``, which stops at the first row that fits, must pick
what a scan of the sorted rows picks.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Rail
from repro.geometry import Rect
from tests.conftest import add_unplaced, make_design

NUM_ROWS = 9


def sorted_rows(design, cell, ty, power_aligned):
    """The reference: every compatible row, sorted by distance to ty."""
    rows = [
        y
        for y in range(design.floorplan.num_rows - cell.height + 1)
        if not power_aligned or design.row_compatible(cell, y)
    ]
    return sorted(rows, key=lambda y: (abs(y - ty), y))


def reference_nearest(design, cell, tx, ty, power_aligned):
    for y in sorted_rows(design, cell, ty, power_aligned):
        x = design._nearest_x_in_row(cell, int(round(tx)), y)
        if x is not None:
            return x, y
    return None


def cells_of_every_height(design, widths=(2,)):
    return [
        add_unplaced(design, w, h, 0.0, 0.0, rail=rail)
        for w in widths
        for h in (1, 2, 3, 4)
        for rail in ((Rail.VDD, Rail.GND) if h % 2 == 0 else (None,))
    ]


EDGE_TYS = [
    -7.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 3.5, 4.0, 4.49, 4.5, 4.51,
    NUM_ROWS - 4.5, NUM_ROWS - 1.0, NUM_ROWS - 0.5, float(NUM_ROWS),
    NUM_ROWS + 0.5, NUM_ROWS + 12.25, 3, -2,
]


class TestRowWalk:
    @pytest.mark.parametrize("first_rail", [Rail.GND, Rail.VDD])
    @pytest.mark.parametrize("power_aligned", [True, False])
    def test_edge_targets_match_sorted_rows(self, first_rail, power_aligned):
        d = make_design(num_rows=NUM_ROWS, row_width=12, first_rail=first_rail)
        for cell in cells_of_every_height(d):
            for ty in EDGE_TYS:
                assert list(d.candidate_rows(cell, ty, power_aligned)) == sorted_rows(
                    d, cell, ty, power_aligned
                ), (cell.height, cell.master.bottom_rail, ty)

    @pytest.mark.parametrize("ty", [math.inf, -math.inf, math.nan])
    def test_non_finite_target_keeps_the_sorted_order(self, ty):
        # Every key ties (inf) or compares false (NaN): sorting keeps
        # the rows bottom up, and so does the walk.
        d = make_design(num_rows=NUM_ROWS, row_width=12)
        for cell in cells_of_every_height(d):
            assert list(d.candidate_rows(cell, ty)) == sorted_rows(d, cell, ty, True)

    def test_cell_taller_than_the_die_has_no_rows(self):
        d = make_design(num_rows=3, row_width=12)
        cell = add_unplaced(d, 2, 4, 0.0, 1.0)
        assert list(d.candidate_rows(cell, 1.0)) == []
        assert d.nearest_position(cell, 0.0, 1.0) is None

    @given(
        ty=st.floats(-20, NUM_ROWS + 20, allow_nan=False),
        half=st.integers(-20, 2 * NUM_ROWS + 20),
        power_aligned=st.booleans(),
        first_rail=st.sampled_from([Rail.GND, Rail.VDD]),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_targets_match_sorted_rows(self, ty, half, power_aligned, first_rail):
        d = make_design(num_rows=NUM_ROWS, row_width=12, first_rail=first_rail)
        for cell in cells_of_every_height(d):
            for t in (ty, half / 2):
                assert list(d.candidate_rows(cell, t, power_aligned)) == sorted_rows(
                    d, cell, t, power_aligned
                )


class TestNearestPosition:
    @given(
        tx=st.floats(-5, 30, allow_nan=False),
        ty=st.floats(-5, NUM_ROWS + 5, allow_nan=False),
        power_aligned=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_first_fit_matches_scan_of_sorted_rows(self, tx, ty, power_aligned):
        # Blockages leave rows 2-4 too narrow for a 5-site cell, so its
        # first fit is often not the nearest row.
        d = make_design(
            num_rows=NUM_ROWS,
            row_width=24,
            blockages=[Rect(0, 2, 20, 3), Rect(6, 6, 18, 2)],
        )
        for cell in cells_of_every_height(d, widths=(2, 5)):
            assert d.nearest_position(cell, tx, ty, power_aligned) == reference_nearest(
                d, cell, tx, ty, power_aligned
            )
