"""Segments: continuous runs of unblocked placement sites in a row.

The paper (Section 2.1.2) distinguishes *rows* (defined by the floorplan)
from *segments* (maximal runs of sites not covered by macros or placement
blockages).  Every segment maintains the list of placed cells that overlap
it, ordered by x-coordinate.  A placed cell of height ``h`` appears in
exactly ``h`` segment cell lists — one per row it spans.

The ordered cell list is the single source of placement adjacency truth
for the whole legalizer: insertion intervals, push chains and occupancy
queries all derive from it.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import attrgetter
from typing import Iterator

from repro.db.cell import Cell

_X = attrgetter("x")


class Segment:
    """A maximal run of unblocked sites in one row.

    Parameters
    ----------
    id:
        Unique segment id within the floorplan.
    row_index:
        Row this segment belongs to (also its y-coordinate).
    x0:
        Leftmost site of the segment.
    width:
        Number of sites in the segment.
    """

    __slots__ = ("id", "row_index", "x0", "width", "region", "cells")

    def __init__(
        self,
        id: int,
        row_index: int,
        x0: int,
        width: int,
        region: int | None = None,
    ) -> None:
        if width <= 0:
            raise ValueError("segment width must be positive")
        self.id = id
        self.row_index = row_index
        self.x0 = x0
        self.width = width
        #: Fence region this segment belongs to (None = default region).
        self.region = region
        #: Placed cells overlapping this segment, ordered by x.
        self.cells: list[Cell] = []

    @property
    def y(self) -> int:
        """Lower edge of the segment (the row index)."""
        return self.row_index

    @property
    def x1(self) -> int:
        """One past the rightmost site."""
        return self.x0 + self.width

    def contains_span(self, x: int, width: int) -> bool:
        """True when ``[x, x + width)`` lies completely inside the segment."""
        return x >= self.x0 and x + width <= self.x1

    # ------------------------------------------------------------------
    # Ordered cell list maintenance
    # ------------------------------------------------------------------
    def bisect(self, x: float, lo: int = 0) -> int:
        """Index of the first cell at or after ``lo`` with ``cell.x >= x``
        (the list is ordered by x)."""
        return bisect_left(self.cells, x, lo, key=_X)

    def insert_cell(self, cell: Cell) -> None:
        """Insert a placed cell, keeping the list ordered by x."""
        if cell.x is None:
            raise ValueError(f"cannot insert unplaced cell {cell.name!r}")
        self.cells.insert(self.bisect(cell.x), cell)

    def remove_cell(self, cell: Cell) -> None:
        """Remove *cell* from the list.

        Uses identity search (positions may have changed since insertion,
        but the relative order is maintained by the legalizer).
        """
        for i, c in enumerate(self.cells):
            if c is cell:
                del self.cells[i]
                return
        raise ValueError(f"cell {cell.name!r} not in segment {self.id}")

    def index_of(self, cell: Cell) -> int:
        """Position of *cell* in the ordered list (identity comparison)."""
        for i, c in enumerate(self.cells):
            if c is cell:
                return i
        raise ValueError(f"cell {cell.name!r} not in segment {self.id}")

    def cells_overlapping(self, x: float, x_end: float) -> Iterator[Cell]:
        """Yield cells whose span intersects the open range ``(x, x_end)``.

        The cell list is ordered by x and cells within a segment never
        overlap, so a binary search bounds the scan.
        """
        # First cell whose right edge could exceed x: start a little early
        # and skip; widths vary so we scan from the first cell with
        # cell.x >= x minus one position.
        i = self.bisect(x)
        if i > 0 and self.cells[i - 1].x + self.cells[i - 1].width > x:
            yield self.cells[i - 1]
        while i < len(self.cells) and self.cells[i].x < x_end:
            yield self.cells[i]
            i += 1

    def free_width(self) -> int:
        """Number of sites not covered by cells in this segment."""
        used = sum(c.width for c in self.cells)
        return self.width - used

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Segment(id={self.id}, row={self.row_index}, "
            f"x=[{self.x0},{self.x1}), cells={len(self.cells)})"
        )
