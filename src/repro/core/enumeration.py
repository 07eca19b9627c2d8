"""Insertion point enumeration (paper Section 5.1.2-5.1.3, Figure 8).

An *insertion point* for a target cell of height ``h_t`` is a combination
of ``h_t`` insertion intervals, one from each of ``h_t`` vertically
consecutive segments, sharing a common cutline (a common feasible target
x).  Not every such combination is valid: intervals on opposite sides of
a multi-row local cell cannot be combined (Figure 8), and for even-height
targets the bottom row must have the matching power rail.

Two enumerators are provided:

* :func:`enumerate_insertion_points` — the paper's scanline: interval
  endpoints are processed in non-decreasing x; pairwise queues ``Q_s^a``
  hold the currently active intervals of segment ``s`` available to
  combine with a newly-opened interval of segment ``a``.  When a gap
  whose *left* cell is a multi-row cell ``m`` opens, the queues ``Q_s^a``
  for the rows ``s`` spanned by ``m`` are cleared — everything still in
  them lies left of ``m`` and must not combine with gaps right of ``m``.
  (The clearing is applied for *discarded* negative-length gaps too;
  their left-cell blockage is real even when the gap itself cannot host
  the target.)  Each valid insertion point is emitted exactly once, when
  its last interval opens; combinations are built row by row and keep
  Figure 8 by comparing two precomputed integers per pair of adjacent
  rows (:func:`_shared_ranks`).
* :func:`enumerate_insertion_points_bruteforce` — a direct product over
  per-row interval lists with explicit filtering, cell by cell
  (:func:`_combo_is_valid`); used as the test oracle for the scanline.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import product
from typing import Callable, Iterable

from repro.core.intervals import InsertionInterval
from repro.core.local_region import LocalRegion

RowPredicate = Callable[[int], bool]
"""Maps a candidate bottom row to "may the target start here" (power-rail
alignment and any extra constraints of the caller)."""


class InsertionPoint:
    """A valid combination of gaps for the target cell.

    ``intervals`` is ordered bottom row first; ``x_lo``/``x_hi`` is the
    common cutline range (intersection of the member intervals).  A
    plain slotted record like
    :class:`~repro.core.intervals.InsertionInterval`: treat it as
    immutable; equality is by field values, and it is unhashable.
    """

    __slots__ = ("intervals", "x_lo", "x_hi")

    def __init__(
        self, intervals: tuple[InsertionInterval, ...], x_lo: int, x_hi: int
    ) -> None:
        self.intervals = intervals
        self.x_lo = x_lo
        self.x_hi = x_hi

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InsertionPoint):
            return NotImplemented
        return (self.intervals, self.x_lo, self.x_hi) == (
            other.intervals, other.x_lo, other.x_hi
        )

    @property
    def bottom_row(self) -> int:
        """Row of the target cell's lower edge."""
        return self.intervals[0].row_index

    def key(self) -> tuple[tuple[int, int], ...]:
        """Canonical identity for set comparisons in tests."""
        return tuple((iv.row_index, iv.gap_index) for iv in self.intervals)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"IP(row={self.bottom_row}, x=[{self.x_lo},{self.x_hi}], "
            f"{list(self.intervals)})"
        )


def _multirow_indices(region: LocalRegion) -> dict[int, list[tuple[int, int]]]:
    """Per row: (cell id, index in the row's local cell list) of every
    multi-row local cell."""
    out: dict[int, list[tuple[int, int]]] = {}
    for row, seg in region.segments.items():
        entries = [
            (c.id, i) for i, c in enumerate(seg.cells) if c.is_multi_row
        ]
        if entries:
            out[row] = entries
    return out


def _combo_is_valid(
    intervals: Iterable[InsertionInterval],
    multirow: dict[int, list[tuple[int, int]]],
) -> bool:
    """Explicit Figure-8 check: all gaps on one side of each multi-row cell."""
    sides: dict[int, str] = {}
    for iv in intervals:
        for cell_id, idx in multirow.get(iv.row_index, ()):
            side = "L" if iv.gap_index <= idx else "R"
            if sides.setdefault(cell_id, side) != side:
                return False
    return True


def _window_rows(bottom: int, height: int) -> range:
    return range(bottom, bottom + height)


def enumerate_insertion_points_bruteforce(
    region: LocalRegion,
    feasible: list[InsertionInterval],
    target_height: int,
    row_ok: RowPredicate | None = None,
) -> list[InsertionPoint]:
    """Reference enumerator: full cartesian product plus filtering."""
    by_row: dict[int, list[InsertionInterval]] = {}
    for iv in feasible:
        by_row.setdefault(iv.row_index, []).append(iv)
    multirow = _multirow_indices(region)
    points: list[InsertionPoint] = []
    rows = region.rows()
    if not rows:
        return points
    for bottom in range(min(rows), max(rows) + 1):
        window = _window_rows(bottom, target_height)
        if any(r not in by_row for r in window):
            continue
        if row_ok is not None and not row_ok(bottom):
            continue
        for combo in product(*(by_row[r] for r in window)):
            lo = max(iv.x_lo for iv in combo)
            hi = min(iv.x_hi for iv in combo)
            if lo > hi:
                continue
            if not _combo_is_valid(combo, multirow):
                continue
            points.append(InsertionPoint(intervals=tuple(combo), x_lo=lo, x_hi=hi))
    return points


def enumerate_insertion_points(
    region: LocalRegion,
    feasible: list[InsertionInterval],
    discarded: list[InsertionInterval],
    target_height: int,
    row_ok: RowPredicate | None = None,
) -> list[InsertionPoint]:
    """The paper's scanline enumerator (Section 5.1.3).

    Events at equal x are ordered *clear* < *open* < *close* so that
    touching intervals still combine and a multi-row cell's own right
    gap survives the clearing it triggers.  Queues hold indices into
    *feasible*; events tied on ``(x, kind)`` run in list order.
    """
    ht = target_height
    if ht == 1:
        # Single-row target: there are no partner queues (a pair of rows
        # would have to differ by at most ht - 1 = 0), so every OPEN
        # emits its own interval and the Figure-8 check is vacuous.  The
        # emission order is the stable x_lo order of the OPEN events.
        return [
            InsertionPoint((iv,), iv.x_lo, iv.x_hi)
            for iv in sorted(feasible, key=lambda iv: iv.x_lo)
            if row_ok is None or row_ok(iv.row_index)
        ]
    rows = region.rows()
    rows_present = set(rows)
    # Bottom rows the target may start on.
    bottoms = {
        bottom
        for bottom in rows
        if all(r in rows_present for r in _window_rows(bottom, ht))
        and (row_ok is None or row_ok(bottom))
    }
    up, down = _shared_ranks(region, feasible)
    x_hi = [iv.x_hi for iv in feasible]

    # Queue keys (a, s): a = row of the interval being processed, s = row
    # of the stored partner intervals.  partners[s] lists every queue
    # that stores intervals of row s.
    queues: dict[tuple[int, int], list[int]] = {}
    partners: dict[int, list[list[int]]] = {s: [] for s in rows}
    for a in rows:
        for s in rows:
            if a != s and abs(a - s) <= ht - 1:
                queues[(a, s)] = []
                partners[s].append(queues[(a, s)])

    CLEAR, OPEN, CLOSE = 0, 1, 2
    gaps = feasible + discarded
    events: list[tuple[int, int, int]] = []
    for i, iv in enumerate(feasible):
        events.append((iv.x_lo, OPEN, i))
        events.append((iv.x_hi, CLOSE, i))
    for i, iv in enumerate(gaps):
        if iv.left is not None and iv.left.is_multi_row:
            events.append((iv.x_lo, CLEAR, i))
    # Indices grow in append order within each kind, so sorting the
    # whole tuple equals a stable sort on (x, kind).
    events.sort()

    points: list[InsertionPoint] = []
    for _x, kind, i in events:
        iv = gaps[i]
        a = iv.row_index
        if kind == CLEAR:
            blocker = iv.left
            assert blocker is not None
            for s in blocker.rows_spanned():
                q = queues.get((a, s))
                if q is not None:
                    q.clear()
        elif kind == OPEN:
            _generate_for(i, feasible, x_hi, ht, bottoms, queues, up, down, points)
            for q in partners[a]:
                q.append(i)
        else:  # CLOSE
            for q in partners[a]:
                try:
                    q.remove(i)
                except ValueError:
                    pass  # already removed by a clearing event
    return points


def _shared_ranks(
    region: LocalRegion, feasible: list[InsertionInterval]
) -> tuple[list[int], list[int]]:
    """Figure 8 as two integers per feasible interval.

    ``up[j]`` counts the local cells spanning interval *j*'s row and the
    row above that lie left of its gap; ``down[j]`` does the same for
    the row below.  The cells two adjacent rows share keep one x order
    in both rows, so intervals of rows ``r`` and ``r + 1`` lie on the
    same side of every shared cell iff ``up`` of the lower one equals
    ``down`` of the upper one — the check :func:`_combo_is_valid` makes
    cell by cell, since a multi-row cell spans consecutive rows.
    """
    above: dict[int, list[int]] = {}
    below: dict[int, list[int]] = {}
    for row, seg in region.segments.items():
        above[row] = []
        below[row] = []
        for k, c in enumerate(seg.cells):
            y = c.y
            assert y is not None
            if y < row:
                below[row].append(k)
            if y + c.height > row + 1:
                above[row].append(k)
    up = [bisect_left(above[iv.row_index], iv.gap_index) for iv in feasible]
    down = [bisect_left(below[iv.row_index], iv.gap_index) for iv in feasible]
    return up, down


def _generate_for(
    i: int,
    feasible: list[InsertionInterval],
    x_hi: list[int],
    ht: int,
    bottoms: set[int],
    queues: dict[tuple[int, int], list[int]],
    up: list[int],
    down: list[int],
    points: list[InsertionPoint],
) -> None:
    """Emit every insertion point whose last-opened interval is
    ``iv = feasible[i]``.

    Implements equation (2) of the paper: the union over all ``h_t``-row
    windows containing ``iv``'s row of the product of the partner queues,
    built row by row in product order and pruned to chains whose
    adjacent members pass the Figure-8 rank test.  Every partner opened
    before ``iv`` and has not closed, so the common range starts at
    ``iv.x_lo`` and is nonempty.
    """
    iv = feasible[i]
    a = iv.row_index
    for bottom in range(a - ht + 1, a + 1):
        if bottom not in bottoms:
            continue
        chains: list[tuple[int, ...]] = (
            [(i,)] if a == bottom else [(j,) for j in queues[(a, bottom)]]
        )
        for s in range(bottom + 1, bottom + ht):
            if not chains:
                break
            members = [i] if s == a else queues[(a, s)]
            chains = [
                (*c, j) for c in chains for j in members if up[c[-1]] == down[j]
            ]
        for c in chains:
            points.append(
                InsertionPoint(
                    tuple(map(feasible.__getitem__, c)),
                    iv.x_lo,
                    min(map(x_hi.__getitem__, c)),
                )
            )
