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
  its last interval opens.
* :func:`enumerate_insertion_points_bruteforce` — a direct product over
  per-row interval lists with explicit filtering; used as the test oracle
  for the scanline.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterable

from repro.core.intervals import InsertionInterval
from repro.core.local_region import LocalRegion

RowPredicate = Callable[[int], bool]
"""Maps a candidate bottom row to "may the target start here" (power-rail
alignment and any extra constraints of the caller)."""


@dataclass(frozen=True, slots=True)
class InsertionPoint:
    """A valid combination of gaps for the target cell.

    ``intervals`` is ordered bottom row first; ``x_lo``/``x_hi`` is the
    common cutline range (intersection of the member intervals).
    """

    intervals: tuple[InsertionInterval, ...]
    x_lo: int
    x_hi: int

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
            InsertionPoint(intervals=(iv,), x_lo=iv.x_lo, x_hi=iv.x_hi)
            for iv in sorted(feasible, key=lambda iv: iv.x_lo)
            if row_ok is None or row_ok(iv.row_index)
        ]
    rows = region.rows()
    rows_present = set(rows)
    multirow = _multirow_indices(region)

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
            _generate_for(i, feasible, ht, rows_present, queues, multirow, row_ok, points)
            for q in partners[a]:
                q.append(i)
        else:  # CLOSE
            for q in partners[a]:
                try:
                    q.remove(i)
                except ValueError:
                    pass  # already removed by a clearing event
    return points


def _generate_for(
    i: int,
    feasible: list[InsertionInterval],
    ht: int,
    rows_present: set[int],
    queues: dict[tuple[int, int], list[int]],
    multirow: dict[int, list[tuple[int, int]]],
    row_ok: RowPredicate | None,
    points: list[InsertionPoint],
) -> None:
    """Emit every insertion point whose last-opened interval is
    ``iv = feasible[i]``.

    Implements equation (2) of the paper: the union over all ``h_t``-row
    windows containing ``iv``'s row of the product of the partner queues.
    """
    iv = feasible[i]
    a = iv.row_index
    for bottom in range(a - ht + 1, a + 1):
        window = _window_rows(bottom, ht)
        if any(r not in rows_present for r in window):
            continue
        if row_ok is not None and not row_ok(bottom):
            continue
        partner_lists = [queues[(a, s)] for s in window if s != a]
        if any(not lst for lst in partner_lists):
            continue
        # Partner lists are already in ascending row order (window order
        # minus row a); splice iv in at its row position instead of
        # sorting every combination.
        iv_slot = a - bottom
        for parts in product(*partner_lists):
            combo = [feasible[j] for j in parts]
            combo.insert(iv_slot, iv)
            if not _combo_is_valid(combo, multirow):
                continue
            lo = max(c.x_lo for c in combo)
            hi = min(c.x_hi for c in combo)
            # Members are all active at iv.x_lo, so the range is nonempty.
            points.append(
                InsertionPoint(intervals=tuple(combo), x_lo=lo, x_hi=hi)
            )
