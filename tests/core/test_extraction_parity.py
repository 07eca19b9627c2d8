"""Differential tests of windowed local region extraction against the
whole-row reference in ``tests/reference_extraction``.

On random legal designs — blockages, fence regions, fixed cells and 1-4
row cells cut by window edges — the production extraction must return
the same rows, runs, database segments, per-row local cell order and
region cell list, and ``LocalRegion.cell_index`` must agree with a
linear identity scan, also on regions reused after a committed and after
a rolled-back ``realize_insertion``.
"""

import random

import pytest

from repro.core import (
    build_insertion_intervals,
    compute_bounds,
    enumerate_insertion_points,
    evaluate_insertion_point,
    extract_local_region,
    realize_insertion,
)
from repro.db import Design, FenceRegion, Floorplan, Library, Rail
from repro.db.journal import Transaction
from repro.geometry import Rect
from tests import reference_extraction as reference

SEEDS = range(40)


def random_design(rng: random.Random) -> Design:
    """A legal placement on a floorplan with blockages and up to two
    fences; cells of 1-4 rows, some fixed, some fenced."""
    num_rows = rng.randint(4, 10)
    row_width = rng.randint(16, 40)
    blockages = [
        Rect(rng.randrange(row_width), rng.randrange(num_rows), rng.randint(1, 4), rng.randint(1, 3))
        for _ in range(rng.randint(0, 3))
    ]
    fences = []
    if rng.random() < 0.5:
        split = rng.randint(4, row_width - 4)
        fences.append(FenceRegion(0, "f0", (Rect(0, 1, split, num_rows - 2),)))
        if rng.random() < 0.5:
            fences.append(FenceRegion(1, "f1", (Rect(split, 0, row_width - split, 2),)))
    fp = Floorplan(
        num_rows=num_rows,
        row_width=row_width,
        first_rail=rng.choice((Rail.GND, Rail.VDD)),
        blockages=blockages,
        fences=fences,
    )
    design = Design(fp, Library())
    regions = [None] + [f.id for f in fences]
    for _ in range(rng.randint(8, 30)):
        w, h = rng.randint(1, 5), rng.choice((1, 1, 1, 2, 2, 3, 4))
        rail = rng.choice((Rail.VDD, Rail.GND)) if h % 2 == 0 else None
        cell = design.add_cell(
            design.library.get_or_create(w, h, rail),
            fixed=rng.random() < 0.1,
            region=rng.choice(regions),
        )
        for _attempt in range(60):
            x, y = rng.randrange(row_width), rng.randrange(num_rows)
            if design.can_place(cell, x, y):
                design.place(cell, x, y)
                cell.gp_x, cell.gp_y = float(x), float(y)
                break
        else:
            design.cells.remove(cell)
    return design


def random_window(rng: random.Random, design: Design) -> Rect:
    fp = design.floorplan
    return Rect(
        rng.randint(-4, fp.row_width - 1),
        rng.randint(-2, fp.num_rows - 1),
        rng.randint(1, fp.row_width + 4),
        rng.randint(1, fp.num_rows + 2),
    )


def assert_same_region(got, ref):
    assert got.window == ref.window
    assert list(got.segments) == list(ref.segments)
    for row, seg in ref.segments.items():
        mine = got.segments[row]
        assert (mine.row_index, mine.x0, mine.x1) == (seg.row_index, seg.x0, seg.x1)
        assert mine.db_segment is seg.db_segment
        assert mine.cells == seg.cells  # Cell equality is identity
    assert got.cells == ref.cells


def assert_index_matches_scan(region, design):
    for row, seg in region.segments.items():
        for cell in seg.cells:
            assert region.cell_index(row, cell) == reference.cell_index(
                region, row, cell
            )
        for cell in design.cells:
            if cell.is_placed and cell not in seg.cells:
                with pytest.raises(ValueError, match="not local in row"):
                    region.cell_index(row, cell)


def cut_multirow(design: Design, box: Rect) -> bool:
    """True when a multi-row cell straddles an edge of the (die-clipped)
    window *box*."""
    return any(
        c.is_placed
        and c.is_multi_row
        and c.rect.overlaps(box)
        and not box.contains_rect(c.rect)
        for c in design.cells
    )


class TestExtractionParity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_windows_match_whole_row_reference(self, seed):
        rng = random.Random(seed)
        design = random_design(rng)
        region_ids = [None] + [f.id for f in design.floorplan.fences]
        for _ in range(12):
            window = random_window(rng, design)
            region_id = rng.choice(region_ids)
            got = extract_local_region(design, window, region_id)
            assert_same_region(
                got, reference.extract_local_region(design, window, region_id)
            )
            assert_index_matches_scan(got, design)

    def test_windows_cut_multirow_cells(self):
        # The random windows above do exercise 2-4-row cells that stick
        # out of the window (non-local at the edge).
        cuts = 0
        for seed in SEEDS:
            rng = random.Random(seed)
            design = random_design(rng)
            region_ids = [None] + [f.id for f in design.floorplan.fences]
            for _ in range(12):
                window = random_window(rng, design)
                region_id = rng.choice(region_ids)
                box = extract_local_region(design, window, region_id).window
                cuts += cut_multirow(design, box)
        assert cuts >= 50


def _realize_first_best(design, region, target):
    """Realize the cheapest insertion point of *target* into *region*;
    False when the region has none."""
    fp = design.floorplan
    bounds = compute_bounds(region)
    feasible, discarded = build_insertion_intervals(region, bounds, target.width)
    points = enumerate_insertion_points(region, feasible, discarded, target.height)
    evaluation = evaluate_insertion_point(
        region, points, target, target.gp_x, target.gp_y,
        fp.site_width_um, fp.site_height_um,
    )
    i = evaluation.first_min()
    if i is None:
        return False
    best = evaluation[i]
    realize_insertion(design, region, best.point, target, best.target_x)
    return True


class _Abort(Exception):
    pass


class TestReusedRegions:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_index_after_commit_and_rollback(self, seed):
        rng = random.Random(1000 + seed)
        design = random_design(rng)
        fp = design.floorplan
        realized = {"commit": 0, "rollback": 0}
        for _ in range(6):
            target = design.add_cell(
                design.library.get_or_create(rng.randint(1, 3), 1),
                gp_x=rng.uniform(0, fp.row_width - 3),
                gp_y=rng.uniform(0, fp.num_rows - 1),
            )
            window = Rect(int(target.gp_x) - 6, int(target.gp_y) - 2, 15, 5)
            if rng.random() < 0.5:
                region = extract_local_region(design, window)
                assert_index_matches_scan(region, design)  # warm the caches
                with pytest.raises(_Abort), Transaction(design):
                    if _realize_first_best(design, region, target):
                        realized["rollback"] += 1
                    raise _Abort
                assert not target.is_placed
                assert_index_matches_scan(region, design)
                assert_same_region(
                    extract_local_region(design, window),
                    reference.extract_local_region(design, window),
                )
                design.cells.remove(target)
            else:
                region = extract_local_region(design, window)
                assert_index_matches_scan(region, design)
                with Transaction(design):
                    placed = _realize_first_best(design, region, target)
                if placed:
                    realized["commit"] += 1
                    assert_index_matches_scan(region, design)
                else:
                    design.cells.remove(target)
        assert sum(realized.values()) > 0
