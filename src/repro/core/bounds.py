"""Leftmost / rightmost placements of a local region (paper Section 5.1.1,
Figure 6).

For every local cell we compute ``xL`` (its position when all local cells
are compacted as far left as possible, keeping per-segment cell order) and
``xR`` (compacted right).  A multi-row cell couples its rows: its bound is
the tightest over all segments it occupies.

Because the current placement is legal and order-preserving compaction
only relaxes it, ``xL <= x <= xR`` holds for every local cell — an
invariant the tests enforce.

Both sweeps are longest-path computations over the (implicit) adjacency
DAG.  Processing cells in current-x order is a valid topological order:
a cell's predecessor in any segment lies strictly left of it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.local_region import LocalRegion


@dataclass(frozen=True, slots=True)
class PlacementBounds:
    """``xL`` / ``xR`` per local cell id."""

    left: dict[int, int]
    right: dict[int, int]

    def x_left(self, cell_id: int) -> int:
        """Leftmost feasible x of the cell (lower-left corner)."""
        return self.left[cell_id]

    def x_right(self, cell_id: int) -> int:
        """Rightmost feasible x of the cell (lower-left corner)."""
        return self.right[cell_id]


def compute_bounds(region: LocalRegion) -> PlacementBounds:
    """Compute leftmost and rightmost placements for *region*.

    Raises :class:`ValueError` if the region's current placement is not
    legal (a bound crosses the cell's current position), which would
    indicate database corruption.
    """
    for cell in region.cells:
        if cell.x is None:
            raise ValueError(
                f"local cell {cell.name!r} is unplaced; "
                f"region placement is not legal"
            )

    cells = sorted(region.cells, key=lambda c: (c.x, c.id))  # type: ignore[arg-type,return-value]
    # Every row of every cell: the local segment and the cell's index in it.
    slots = {
        cell.id: [
            (row, region.segments[row], region.cell_index(row, cell))
            for row in cell.rows_spanned()
        ]
        for cell in cells
    }

    left: dict[int, int] = {}
    for cell in cells:
        assert cell.x is not None
        x = None
        for row, seg, idx in slots[cell.id]:
            if idx == 0:
                floor = seg.x0
            else:
                pred = seg.cells[idx - 1]
                if pred.id not in left:
                    raise ValueError(
                        f"cells {pred.name!r} and {cell.name!r} are out of "
                        f"order in row {row}; region placement is not legal"
                    )
                floor = left[pred.id] + pred.width
            if x is None or floor > x:
                x = floor
        assert x is not None
        if x > cell.x:
            raise ValueError(
                f"leftmost bound {x} of cell {cell.name!r} exceeds its "
                f"current x {cell.x}; region placement is not legal"
            )
        left[cell.id] = x

    right: dict[int, int] = {}
    for cell in reversed(cells):
        assert cell.x is not None
        x = None
        for row, seg, idx in slots[cell.id]:
            if idx == len(seg.cells) - 1:
                ceil = seg.x1 - cell.width
            else:
                nxt = seg.cells[idx + 1]
                if nxt.id not in right:
                    raise ValueError(
                        f"cells {cell.name!r} and {nxt.name!r} are out of "
                        f"order in row {row}; region placement is not legal"
                    )
                ceil = right[nxt.id] - cell.width
            if x is None or ceil < x:
                x = ceil
        assert x is not None
        if x < cell.x:
            raise ValueError(
                f"rightmost bound {x} of cell {cell.name!r} is below its "
                f"current x {cell.x}; region placement is not legal"
            )
        right[cell.id] = x

    return PlacementBounds(left=left, right=right)
