"""The rectangle checker does not lean on the segment cell lists.

Each case starts from a legal placement and moves one placed cell by
writing ``cell.x`` / ``cell.y`` directly, so the segment lists go stale:
one site into a neighbour, one site past the end of its segment (a die
edge or a blockage), or an even-height cell one row onto a row with the
wrong rail.  ``verify_placement(..., check_registration=False)`` reads
only cell rectangles and the floorplan, and must flag every case.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checker import verify_placement
from repro.checker.legality import ViolationKind
from repro.db import Design, Floorplan, Library, Rail
from repro.geometry import Rect


def legal_design(seed: int) -> Design:
    """A packed legal placement around two blockages, cells 1-4 rows."""
    rng = random.Random(seed)
    fp = Floorplan(
        num_rows=8,
        row_width=30,
        blockages=[Rect(10, 2, 3, 2), Rect(22, 5, 2, 3)],
    )
    design = Design(fp, Library())
    for _ in range(60):
        w, h = rng.randint(1, 5), rng.choice((1, 1, 1, 2, 2, 3, 4))
        rail = rng.choice((Rail.VDD, Rail.GND)) if h % 2 == 0 else None
        cell = design.add_cell(design.library.get_or_create(w, h, rail))
        spots = [
            (x, y)
            for y in range(fp.num_rows)
            for x in range(fp.row_width)
            if design.can_place(cell, x, y)
        ]
        if spots:
            design.place(cell, *rng.choice(spots))
        else:
            design.cells.remove(cell)
    assert verify_placement(design) == []
    return design


def kinds_naming(design: Design, cell) -> set[ViolationKind]:
    return {
        v.kind
        for v in verify_placement(design, check_registration=False)
        if cell.name in v.cells
    }


def neighbours(design: Design, cell):
    """(neighbour, side) pairs: the nearest placed cell left (-1) and
    right (+1) of *cell* in each row it spans."""
    out = []
    for row in cell.rows_spanned():
        seg = design.floorplan.segment_at(row, cell.x)
        i = seg.index_of(cell)
        if i > 0:
            out.append((seg.cells[i - 1], -1))
        if i + 1 < len(seg.cells):
            out.append((seg.cells[i + 1], +1))
    return out


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 40),
    pick=st.integers(0, 10**6),
    kind=st.sampled_from(["neighbour", "segment_end", "wrong_rail"]),
)
def test_one_cell_moved_is_flagged(seed, pick, kind):
    design = legal_design(seed)
    fp = design.floorplan
    placed = [c for c in design.cells if c.is_placed]
    if kind == "neighbour":
        options = [
            (c, nb, side) for c in placed for nb, side in neighbours(design, c)
        ]
        cell, nb, side = options[pick % len(options)]
        # One site of overlap with the neighbour.
        cell.x = nb.x + nb.width - 1 if side < 0 else nb.x - cell.width + 1
        assert ViolationKind.OVERLAP in kinds_naming(design, cell)
    elif kind == "segment_end":
        cell = placed[pick % len(placed)]
        seg = fp.segment_at(cell.y, cell.x)
        # One site past the segment's start or end: a die edge or a
        # blockage, since segments are maximal runs.
        cell.x = seg.x0 - 1 if pick % 2 else seg.x1 - cell.width + 1
        assert ViolationKind.NOT_IN_SEGMENT in kinds_naming(design, cell)
    else:
        even = [c for c in placed if c.height % 2 == 0]
        cell = even[pick % len(even)]
        cell.y += -1 if cell.y + cell.height == fp.num_rows or pick % 2 else 1
        if cell.y < 0:
            cell.y = 1
        assert ViolationKind.RAIL_MISALIGNED in kinds_naming(design, cell)
