"""Targeted tests for exact critical positions on multi-row push DAGs.

The randomized equivalence tests cover these paths statistically; the
cases here pin the tricky shapes down deterministically: pushes that
fan out through a multi-row cell, diamond-shaped push DAGs where two
chains reconverge, and chains that bind through the *longer* of two
paths (the max in the longest-path recurrence).
"""

import pytest

from repro.core import (
    EvaluationMode,
    build_insertion_intervals,
    compute_bounds,
    enumerate_insertion_points,
    evaluate_insertion_point,
    extract_local_region,
)
from repro.geometry import Rect
from tests.conftest import add_placed, add_unplaced, make_design


def evaluate_all(design, target, tx, ty, mode=EvaluationMode.EXACT):
    fp = design.floorplan
    region = extract_local_region(design, Rect(0, 0, fp.row_width, fp.num_rows))
    bounds = compute_bounds(region)
    feasible, discarded = build_insertion_intervals(region, bounds, target.width)
    points = enumerate_insertion_points(
        region, feasible, discarded, target.height
    )
    return region, evaluate_insertion_point(
        region, points, target, tx, ty,
        fp.site_width_um, fp.site_height_um, mode,
    )


class TestFanOut:
    def test_push_through_multirow_fans_into_both_rows(self):
        # t -> m (2 rows); m pushes u (row 1) and v (row 0).
        # Exact cost of inserting t at the far left must count all three.
        d = make_design(num_rows=2, row_width=16)
        m = add_placed(d, 2, 2, 3, 0, name="m")
        v = add_placed(d, 3, 1, 5, 0, name="v")
        u = add_placed(d, 3, 1, 6, 1, name="u")
        t = add_unplaced(d, 3, 1, 0.0, 0.0, name="t")
        region, evs = evaluate_all(d, t, 0.0, 0.0)
        gap_left_of_m = next(
            e for e in evs
            if e.point.bottom_row == 0
            and e.point.intervals[0].right is m
        )
        # t at x=0 (its desired spot): m -> 3, v -> 5 (untouched? m ends
        # at 5, v at 5: v stays), u at 6 > m.x1=5: untouched.
        assert gap_left_of_m.target_x == 0
        assert gap_left_of_m.cost == pytest.approx(0.0)

    def test_fan_out_costs_counted(self):
        # Tighter: pushing m right by 2 displaces both u and v.
        d = make_design(num_rows=2, row_width=14)
        m = add_placed(d, 2, 2, 2, 0, name="m")
        v = add_placed(d, 3, 1, 4, 0, name="v")
        u = add_placed(d, 3, 1, 4, 1, name="u")
        t = add_unplaced(d, 4, 1, 0.0, 0.0, name="t")
        region, evs = evaluate_all(d, t, 0.0, 0.0)
        ev = next(
            e for e in evs
            if e.point.bottom_row == 0 and e.point.intervals[0].left is None
        )
        # t at 0 spans [0,4): m -> 4, v -> 6, u -> 6: 2+2+2 = 6 sites.
        sw = d.floorplan.site_width_um
        assert ev.target_x == 0
        assert ev.cost == pytest.approx(6 * sw)


class TestDiamond:
    def test_reconverging_chains_use_the_binding_path(self):
        # Two chains from t to z: t->a->z (row 0) and t->m->z where m is
        # 2-row and z is 2-row; widths differ, so z's critical position
        # comes from the wider chain (the max in the recurrence).
        d = make_design(num_rows=2, row_width=24)
        a = add_placed(d, 5, 1, 4, 0, name="a")  # row 0, wide
        m = add_placed(d, 2, 2, 9, 0, name="mz")  # couples rows
        z = add_placed(d, 3, 1, 12, 1, name="z")  # row 1, right of m
        t = add_unplaced(d, 4, 2, 0.0, 0.0,
                         rail=d.floorplan.rows[0].bottom_rail, name="t")
        region, evs = evaluate_all(d, t, 0.0, 0.0)
        leftmost = next(
            e for e in evs
            if e.point.intervals[0].left is None
            and e.point.intervals[1].left is None
        )
        # t at x=0 spans rows 0-1, width 4:
        #   row 0: a 4->4 (untouched at 4? t ends at 4, a at 4: flush).
        #   row 1: m is t's right neighbor in row 1? m at 9: untouched.
        assert leftmost.cost == pytest.approx(0.0)
        # Push t to x=2: a->6, m: row0 pred a pushes m? a ends at 11 > 9
        # -> m->11, z-> 13. Verify against simulation via cost equality.
        from repro.core import realize_insertion

        snapshot = d.snapshot_positions()
        point = leftmost.point
        realize_insertion(d, region, point, t, 2)
        moved = (
            abs(a.x - 4) + abs(m.x - 9) + abs(z.x - 12)
        ) * d.floorplan.site_width_um
        own = 2 * d.floorplan.site_width_um
        # Exact evaluation at x=2 must equal the realized displacement;
        # evaluate the displacement curve at x=2 directly.
        fp = d.floorplan
        from repro.core.evaluation import _critical_positions_exact
        from tests.reference_evaluation import total_cost
        # Roll back before computing critical positions on the original.
        for row in t.rows_spanned():
            region.segments[row].cells.remove(t)
        region.cells.remove(t)
        t.x = t.y = None
        d.restore_positions(snapshot)
        pairs = _critical_positions_exact(region, point, t.width)
        pairs.append((0.0, 0.0))  # target's own V at desired x=0
        cost_at_2 = total_cost(pairs, 2) * fp.site_width_um
        assert cost_at_2 == pytest.approx(moved + own)


class TestApproxUnderestimatesChains:
    def test_longer_chain_bigger_gap(self):
        # A three-cell chain: the neighbor-only approximation misses two
        # cells' worth of pushing; exact counts everything.
        d = make_design(num_rows=1, row_width=18)
        add_placed(d, 3, 1, 2, 0)
        add_placed(d, 3, 1, 5, 0)
        add_placed(d, 3, 1, 8, 0)
        t = add_unplaced(d, 4, 1, 0.0, 0.0)
        _, evs_exact = evaluate_all(d, t, 0.0, 0.0, EvaluationMode.EXACT)
        _, evs_approx = evaluate_all(d, t, 0.0, 0.0, EvaluationMode.APPROX)
        exact = next(e for e in evs_exact
                     if e.point.intervals[0].left is None)
        approx = next(e for e in evs_approx
                      if e.point.intervals[0].left is None)
        # Inserting at x=0 pushes the whole chain right by 2 each.
        sw = d.floorplan.site_width_um
        assert exact.cost == pytest.approx(6 * sw)
        assert approx.cost == pytest.approx(2 * sw)  # sees one neighbor
