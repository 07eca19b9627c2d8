"""Whole-row local region extraction: the reference for the windowed
:func:`repro.core.local_region.extract_local_region`.

Every fixed-point pass re-chooses every row of the window, scanning each
database segment's whole cell list for blockers, and re-classifies every
window cell; local cells are collected per row and sorted by x.  It
relies on nothing the production code relies on for speed — no slicing
of segment lists by x, no incremental re-choice, no index cache — so
the two must agree exactly: same rows, runs, database segments, local
cell order per row and region cell list.
"""

from __future__ import annotations

from repro.core.local_region import LocalRegion, LocalSegment
from repro.db.cell import Cell
from repro.db.design import Design
from repro.db.floorplan import Floorplan
from repro.db.segment import Segment
from repro.geometry import Rect


def extract_local_region(
    design: Design, window: Rect, region_id: int | None = None
) -> LocalRegion:
    """The local region for *window*, by whole-row scans."""
    fp = design.floorplan
    row_lo = max(0, int(window.y))
    row_hi = min(fp.num_rows, int(window.y1))
    wx0 = max(0, int(window.x))
    wx1 = min(fp.row_width, int(window.x1))
    center_x = (wx0 + wx1) / 2

    window_box = Rect(wx0, row_lo, wx1 - wx0, row_hi - row_lo)
    touching = design.cells_overlapping_rect(window_box)
    non_local_ids = {
        c.id
        for c in touching
        if c.fixed or not window_box.contains_rect(c.rect)
    }
    while True:
        segments = _choose_local_segments(
            fp, non_local_ids, row_lo, row_hi, wx0, wx1, center_x, region_id
        )
        local, rejected = _classify_cells(touching, non_local_ids, segments)
        if not rejected:
            for cell in local:
                for row in cell.rows_spanned():
                    segments[row].cells.append(cell)
            for seg in segments.values():
                seg.cells.sort(key=lambda c: c.x)
            return LocalRegion(window=window_box, segments=segments, cells=local)
        non_local_ids.update(c.id for c in rejected)


def cell_index(region: LocalRegion, row_index: int, cell: Cell) -> int:
    """Index of *cell* in the local segment of ``row_index``, by a linear
    identity scan."""
    for i, c in enumerate(region.segments[row_index].cells):
        if c is cell:
            return i
    raise ValueError(f"cell {cell.name!r} not local in row {row_index}")


def _choose_local_segments(
    fp: Floorplan,
    non_local_ids: set[int],
    row_lo: int,
    row_hi: int,
    wx0: int,
    wx1: int,
    center_x: float,
    region_id: int | None,
) -> dict[int, LocalSegment]:
    """Per row, the candidate run closest to the window center."""
    segments: dict[int, LocalSegment] = {}
    for row in range(row_lo, row_hi):
        best: tuple[float, int, int, Segment] | None = None
        for db_seg in fp.segments_in_row(row):
            if db_seg.region != region_id:
                continue
            lo = max(db_seg.x0, wx0)
            hi = min(db_seg.x1, wx1)
            if lo >= hi:
                continue
            spans = sorted(
                (max(c.x, lo), min(c.x + c.width, hi))
                for c in db_seg.cells
                if c.id in non_local_ids and c.x < hi and c.x + c.width > lo
            )
            x = lo
            for b_lo, b_hi in spans:
                if b_lo > x:
                    best = _better(best, x, b_lo, center_x, db_seg)
                x = max(x, b_hi)
            if x < hi:
                best = _better(best, x, hi, center_x, db_seg)
        if best is not None:
            _, lo, hi, db_seg = best
            segments[row] = LocalSegment(
                row_index=row, x0=lo, x1=hi, db_segment=db_seg
            )
    return segments


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
    touching: list[Cell],
    non_local_ids: set[int],
    segments: dict[int, LocalSegment],
) -> tuple[list[Cell], list[Cell]]:
    """Window cells split into local and newly rejected ones."""
    local: list[Cell] = []
    rejected: list[Cell] = []
    for cell in touching:
        if cell.id in non_local_ids:
            continue
        ok = all(
            row in segments
            and cell.x >= segments[row].x0
            and cell.x + cell.width <= segments[row].x1
            for row in cell.rows_spanned()
        )
        (local if ok else rejected).append(cell)
    return local, rejected
