"""Local region extraction (paper Sections 2.1.3 and 3, Figure 3).

Given a rectangular window, we carve out one *local segment* per row —
a run of sites bounded by the window, by blockages/segment ends, and by
*non-local* cells — and classify the cells completely contained in the
local segments as *local cells*.  Local cells are the only cells MLL may
move (and only horizontally).

The paper omits the extraction algorithm ("due to page limit").  We use a
fixed-point construction that matches every property stated in the paper:

1. Cells not completely inside the window are non-local.
2. Non-local cells split each row's span into candidate runs; the run
   closest to the window center becomes the row's local segment.
3. A cell is local iff it is completely contained in the local segment of
   *every* row it spans; a cell inside the window that fails this (e.g. a
   single-row cell in a non-chosen run, or a multi-row cell whose rows
   chose incompatible runs — cells ``i`` and ``c`` of Figure 3) becomes
   non-local, and extraction repeats with it as a blocker.

The non-local set only grows, so the iteration terminates.  A row's
choice depends only on the non-local cells in it, so a repeat re-chooses
just the rows the newly rejected cells span.

Every scan is bounded by the window: blockers come from the window's
slice of each segment (:meth:`~repro.db.segment.Segment.cells_overlapping`)
and local cells from a bisected slice of it.  Both rely on the database
invariant that a segment's cell list is ordered by x and non-overlapping.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.db.cell import Cell
from repro.db.design import Design
from repro.db.floorplan import Floorplan
from repro.db.segment import Segment
from repro.geometry import Rect

_Footprint = tuple[Cell, int, int, range]
"""A window cell with its x span ``[x, x1)`` and the rows it spans."""


@dataclass(slots=True)
class LocalSegment:
    """One row's slice of the local region.

    ``cells`` holds the local cells overlapping the slice, ordered by x —
    the order MLL will preserve.  ``positions`` maps a cell id to its
    index in ``cells``; it is a cache that :meth:`LocalRegion.cell_index`
    verifies on every hit and rebuilds on a miss, so inserts and journal
    rollbacks on ``cells`` never need to touch it.
    """

    row_index: int
    x0: int
    x1: int
    db_segment: Segment
    cells: list[Cell] = field(default_factory=list)
    positions: dict[int, int] = field(default_factory=dict, repr=False, compare=False)

    @property
    def width(self) -> int:
        """Number of sites in the local segment."""
        return self.x1 - self.x0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LocalSegment(row={self.row_index}, x=[{self.x0},{self.x1}), "
            f"cells=[{', '.join(c.name for c in self.cells)}])"
        )


@dataclass(slots=True)
class LocalRegion:
    """The extracted local placement problem.

    ``segments`` maps row index to the row's local segment; rows of the
    window without a usable run are absent.  ``cells`` lists each local
    cell once.
    """

    window: Rect
    segments: dict[int, LocalSegment]
    cells: list[Cell]

    def rows(self) -> list[int]:
        """Sorted row indices that have a local segment."""
        return sorted(self.segments)

    def cell_index(self, row_index: int, cell: Cell) -> int:
        """Index of *cell* in the local segment of ``row_index``.

        O(1): the segment's id→index cache answers when the cell found
        there is *cell* itself; otherwise (the list changed since the
        cache was built, or it never was) the cache is rebuilt once.
        Cell ids are unique within a design.
        """
        seg = self.segments[row_index]
        cells = seg.cells
        i = seg.positions.get(cell.id)
        if i is not None and i < len(cells) and cells[i] is cell:
            return i
        seg.positions = {c.id: j for j, c in enumerate(cells)}
        i = seg.positions.get(cell.id)
        if i is not None and cells[i] is cell:
            return i
        raise ValueError(f"cell {cell.name!r} not local in row {row_index}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LocalRegion(window={self.window}, rows={self.rows()}, "
            f"{len(self.cells)} local cells)"
        )


def extract_local_region(
    design: Design, window: Rect, region_id: int | None = None
) -> LocalRegion:
    """Extract the local region for *window* (integer site coordinates).

    ``region_id`` restricts the extraction to segments of one fence
    region (the target cell's); segments are disjoint in x, so cells of
    other regions can neither move for nor block the target and are
    simply outside the local region.

    See the module docstring for the construction.  The returned region
    references the design's :class:`~repro.db.cell.Cell` objects directly;
    realization mutates their positions in place.
    """
    fp = design.floorplan
    row_lo = max(0, int(window.y))
    row_hi = min(fp.num_rows, int(window.y1))
    wx0 = max(0, int(window.x))
    wx1 = min(fp.row_width, int(window.x1))
    center_x = (wx0 + wx1) / 2
    window_box = Rect(wx0, row_lo, wx1 - wx0, row_hi - row_lo)

    # Cells intersecting the window area at all (placed ones only); the
    # ones completely inside it may be local.
    non_local_ids: set[int] = set()
    candidates: list[_Footprint] = []
    for cell in design.cells_overlapping_rect(window_box):
        x, y = cell.x, cell.y
        assert x is not None and y is not None
        x1 = x + cell.width
        y1 = y + cell.height
        if cell.fixed or x < wx0 or x1 > wx1 or y < row_lo or y1 > row_hi:
            non_local_ids.add(cell.id)
        else:
            candidates.append((cell, x, x1, range(y, y1)))

    segments: dict[int, LocalSegment] = {}
    rows: list[int] | range = range(row_lo, row_hi)
    while True:
        for row in rows:
            seg = _choose_local_segment(
                fp, row, non_local_ids, wx0, wx1, center_x, region_id
            )
            if seg is not None:
                segments[row] = seg
            else:
                segments.pop(row, None)
        candidates, rejected = _classify_cells(candidates, segments)
        if not rejected:
            break
        non_local_ids.update(cell.id for cell, *_ in rejected)
        rows = sorted({r for *_, spanned in rejected for r in spanned})

    local = [cell for cell, *_ in candidates]
    local_ids = {c.id for c in local}
    for seg in segments.values():
        db_seg = seg.db_segment
        lo = db_seg.bisect(seg.x0)
        hi = db_seg.bisect(seg.x1, lo)
        seg.cells = [c for c in db_seg.cells[lo:hi] if c.id in local_ids]
    return LocalRegion(window=window_box, segments=segments, cells=local)


def _choose_local_segment(
    fp: Floorplan,
    row: int,
    non_local_ids: set[int],
    wx0: int,
    wx1: int,
    center_x: float,
    region_id: int | None,
) -> LocalSegment | None:
    """The candidate run of *row* closest to the window center, if any."""
    best: tuple[float, int, int, Segment] | None = None
    for db_seg in fp.segments_in_row(row):
        if db_seg.region != region_id:
            continue
        lo = max(db_seg.x0, wx0)
        hi = min(db_seg.x1, wx1)
        if lo >= hi:
            continue
        # Blockers: the non-local cells among this run's cells, in x order.
        x = lo
        for c in db_seg.cells_overlapping(lo, hi):
            if c.id in non_local_ids:
                assert c.x is not None
                if c.x > x:
                    best = _better(best, x, c.x, center_x, db_seg)
                x = max(x, c.x + c.width)
        if x < hi:
            best = _better(best, x, hi, center_x, db_seg)
    if best is None:
        return None
    _, lo, hi, db_seg = best
    return LocalSegment(row_index=row, x0=lo, x1=hi, db_segment=db_seg)


def _better(
    best: tuple[float, int, int, Segment] | None,
    lo: int,
    hi: int,
    center_x: float,
    db_seg: Segment,
) -> tuple[float, int, int, Segment]:
    """Keep the run closest to the window center (ties: wider, leftmost)."""
    if lo <= center_x <= hi:
        dist = 0.0
    else:
        dist = min(abs(lo - center_x), abs(hi - center_x))
    cand = (dist, lo, hi, db_seg)
    if best is None:
        return cand
    if (dist, -(hi - lo), lo) < (best[0], -(best[2] - best[1]), best[1]):
        return cand
    return best


def _classify_cells(
    candidates: list[_Footprint], segments: dict[int, LocalSegment]
) -> tuple[list[_Footprint], list[_Footprint]]:
    """Split the not-yet-rejected window cells into local and newly
    rejected (non-local), keeping their order.

    A cell is local iff every row it spans has a local segment that fully
    contains the cell's span.
    """
    local: list[_Footprint] = []
    rejected: list[_Footprint] = []
    for entry in candidates:
        _, x, x1, spanned = entry
        for row in spanned:
            seg = segments.get(row)
            if seg is None or x < seg.x0 or x1 > seg.x1:
                rejected.append(entry)
                break
        else:
            local.append(entry)
    return local, rejected
