"""Legal placement realization (paper Section 5.3, Algorithm 2).

Given a chosen insertion point and target x, the target cell is inserted
into its gaps and overlapping cells are ripple-pushed away: a queue seeded
with the target pops cells and shifts any left neighbor that overlaps,
minimally, re-enqueueing it; then symmetrically to the right.  A multi-row
cell popped from the queue propagates the push into every row it spans —
this is the coupling that single-row legalizers cannot express.

The insertion interval bounds (built from the leftmost/rightmost
placements) guarantee every push stays inside the local segments and never
touches a non-local cell; a violation raises :class:`RealizationError`
and indicates a bug upstream, not a recoverable condition.

Every mutation performed here (the target's position assignment, each
segment cell-list insert, each ripple shift) is journaled when the design
has an active :class:`~repro.db.journal.Transaction`, so a mid-flight
exception rolls back to the exact pre-call state instead of corrupting
the design.  :meth:`MultiRowLocalLegalizer.try_place
<repro.core.mll.MultiRowLocalLegalizer.try_place>` always opens such a
transaction around this function.
"""

from __future__ import annotations

from collections import deque

from repro.core.enumeration import InsertionPoint
from repro.core.local_region import LocalRegion
from repro.db.cell import Cell
from repro.db.design import Design


class RealizationError(Exception):
    """An insertion that should have been feasible could not be realized."""


def realize_insertion(
    design: Design,
    region: LocalRegion,
    point: InsertionPoint,
    target: Cell,
    target_x: int,
) -> None:
    """Place *target* at ``(target_x, point.bottom_row)`` and legalize.

    Mutates the design in place: the target is registered in its segments
    at the gap positions of *point*, and local cells are shifted along x
    (their segment order never changes).
    """
    if target.is_placed:
        raise RealizationError(f"target {target.name!r} is already placed")
    if not point.x_lo <= target_x <= point.x_hi:
        raise RealizationError(
            f"target x {target_x} outside cutline range "
            f"[{point.x_lo},{point.x_hi}]"
        )

    journal = design.journal
    old_x, old_y = target.x, target.y
    target.x = target_x
    target.y = point.bottom_row
    if journal is not None:
        journal.note_set_pos(target, old_x, old_y, site="realize.target_pos")
    # Register the target in each row's DB segment at its gap slot and in
    # the local segment lists, so neighbor lookups below see it.
    for iv in point.intervals:
        local_seg = region.segments[iv.row_index]
        db_seg = local_seg.db_segment
        # The DB list is ordered by x: cells left of the local segment
        # come first, then the local ones in local order.
        db_index = db_seg.bisect(local_seg.x0) + iv.gap_index
        db_seg.cells.insert(db_index, target)
        if journal is not None:
            journal.note_list_insert(
                db_seg.cells, db_index, target, site="realize.db_segment_insert"
            )
        local_seg.cells.insert(iv.gap_index, target)
        if journal is not None:
            journal.note_list_insert(
                local_seg.cells, iv.gap_index, target,
                site="realize.local_segment_insert",
            )
    if target not in region.cells:
        region.cells.append(target)
        if journal is not None:
            journal.note_list_insert(
                region.cells, len(region.cells) - 1, target,
                site="realize.region_append",
            )

    _push_side(design, region, target, side=-1)
    _push_side(design, region, target, side=+1)


def _push_side(
    design: Design, region: LocalRegion, target: Cell, side: int
) -> None:
    """Ripple-push overlapping cells away from *target*.

    ``side`` is -1 for the left sweep (Algorithm 2 lines 2-11) and +1 for
    the right sweep (lines 12-21).
    """
    queue: deque[Cell] = deque([target])
    while queue:
        cell = queue.popleft()
        assert cell.x is not None
        for row in cell.rows_spanned():
            seg = region.segments.get(row)
            if seg is None:
                raise RealizationError(
                    f"cell {cell.name!r} spans row {row} outside the region"
                )
            idx = region.cell_index(row, cell)
            if side < 0:
                if idx == 0:
                    continue
                nb = seg.cells[idx - 1]
                assert nb.x is not None
                if nb.x + nb.width > cell.x:
                    new_x = cell.x - nb.width
                    if new_x < seg.x0:
                        raise RealizationError(
                            f"push drives {nb.name!r} past segment start "
                            f"{seg.x0} in row {row}"
                        )
                    design.shift_x(nb, new_x)
                    queue.append(nb)
            else:
                if idx == len(seg.cells) - 1:
                    continue
                nb = seg.cells[idx + 1]
                assert nb.x is not None
                if cell.x + cell.width > nb.x:
                    new_x = cell.x + cell.width
                    if new_x + nb.width > seg.x1:
                        raise RealizationError(
                            f"push drives {nb.name!r} past segment end "
                            f"{seg.x1} in row {row}"
                        )
                    design.shift_x(nb, new_x)
                    queue.append(nb)
