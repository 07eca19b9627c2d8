"""Insertion intervals (paper Section 5.1.1, Figure 7).

For a target cell of width ``w_t``, every gap between horizontally
consecutive local cells of a segment (or between a cell and the segment
boundary) yields an interval ``[x_lo, x_hi]`` of feasible target-cell
x-coordinates:

* between cells ``i`` and ``j``:  ``[xL_i + w_i,  xR_j - w_t]``
* between the left boundary and ``j``:  ``[x0,  xR_j - w_t]``
* between ``i`` and the right boundary:  ``[xL_i + w_i,  x1 - w_t]``

where ``xL`` / ``xR`` come from the leftmost/rightmost placements.  An
interval with negative length admits no legal position and is discarded
(Figure 7(f)) — but a discarded gap whose left cell is multi-row still
matters to the enumeration scanline (it must clear queues), so
``build_insertion_intervals`` returns discarded gaps separately.
"""

from __future__ import annotations

from repro.core.bounds import PlacementBounds
from repro.core.local_region import LocalRegion
from repro.db.cell import Cell


class InsertionInterval:
    """One gap of one segment, annotated with the feasible target range.

    ``left`` / ``right`` are the neighboring cells (``None`` encodes the
    segment boundary, the paper's ``L`` / ``R`` markers).  ``gap_index``
    is the slot position in the segment's ordered cell list: inserting at
    ``gap_index`` g places the target between ``cells[g-1]`` and
    ``cells[g]``.

    A plain slotted record: MLL builds one per gap of every call, so it
    skips a frozen dataclass's per-field ``object.__setattr__``.  Treat
    it as immutable; equality is by field values, and it is unhashable.
    """

    __slots__ = ("row_index", "left", "right", "gap_index", "x_lo", "x_hi")

    def __init__(
        self,
        row_index: int,
        left: Cell | None,
        right: Cell | None,
        gap_index: int,
        x_lo: int,
        x_hi: int,
    ) -> None:
        self.row_index = row_index
        self.left = left
        self.right = right
        self.gap_index = gap_index
        self.x_lo = x_lo
        self.x_hi = x_hi

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InsertionInterval):
            return NotImplemented
        return (
            self.row_index, self.left, self.right,
            self.gap_index, self.x_lo, self.x_hi,
        ) == (
            other.row_index, other.left, other.right,
            other.gap_index, other.x_lo, other.x_hi,
        )

    @property
    def length(self) -> int:
        """Signed length; negative means infeasible (Figure 7(f))."""
        return self.x_hi - self.x_lo

    @property
    def is_feasible(self) -> bool:
        """True when at least one target position exists in the gap."""
        return self.x_hi >= self.x_lo

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        lname = self.left.name if self.left else "L"
        rname = self.right.name if self.right else "R"
        return (
            f"I(r{self.row_index},{lname},{rname},[{self.x_lo},{self.x_hi}])"
        )


def build_insertion_intervals(
    region: LocalRegion,
    bounds: PlacementBounds,
    target_width: int,
) -> tuple[list[InsertionInterval], list[InsertionInterval]]:
    """All insertion intervals of *region* for a target of *target_width*.

    Returns ``(feasible, discarded)`` where *discarded* holds the
    negative-length gaps (kept for the enumeration's queue-clearing
    rule — see :mod:`repro.core.enumeration`).
    """
    feasible: list[InsertionInterval] = []
    discarded: list[InsertionInterval] = []
    x_left, x_right = bounds.left, bounds.right
    for row in region.rows():
        seg = region.segments[row]
        # Gap g lies between cells[g-1] (or the left boundary) and
        # cells[g] (or the right boundary).
        left: Cell | None = None
        x_lo = seg.x0
        for g, right in enumerate((*seg.cells, None)):
            x_hi = (
                seg.x1 - target_width
                if right is None
                else x_right[right.id] - target_width
            )
            interval = InsertionInterval(row, left, right, g, x_lo, x_hi)
            (feasible if interval.is_feasible else discarded).append(interval)
            if right is not None:
                left = right
                x_lo = x_left[right.id] + right.width
    return feasible, discarded
