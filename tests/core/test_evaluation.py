"""Unit tests for insertion point evaluation (paper Fig. 9, Section 5.2)."""

import random

import pytest

from repro.core import (
    EvaluationMode,
    build_insertion_intervals,
    compute_bounds,
    enumerate_insertion_points,
    evaluate_insertion_point,
    extract_local_region,
    realize_insertion,
)
from repro.geometry import Rect
from tests.conftest import add_placed, add_unplaced, make_design, random_legal_design


def full_region(design):
    fp = design.floorplan
    return extract_local_region(design, Rect(0, 0, fp.row_width, fp.num_rows))


def all_points(design, target_w, target_h):
    region = full_region(design)
    bounds = compute_bounds(region)
    feasible, discarded = build_insertion_intervals(region, bounds, target_w)
    points = enumerate_insertion_points(region, feasible, discarded, target_h)
    return region, points


def evaluate(design, region, point, target, tx, ty, mode):
    fp = design.floorplan
    [ev] = evaluate_insertion_point(
        region,
        [point],
        target,
        desired_x=tx,
        desired_y=ty,
        site_width_um=fp.site_width_um,
        site_height_um=fp.site_height_um,
        mode=mode,
    )
    return ev


def simulate_cost(design, region, point, target, x, tx, ty):
    """Ground truth: realize the insertion and measure displacement."""
    fp = design.floorplan
    before = {c.id: c.x for c in region.cells}
    snapshot = design.snapshot_positions()
    local_cells = list(region.cells)
    realize_insertion(design, region, point, target, x)
    moved = sum(
        abs(c.x - before[c.id]) for c in local_cells
    ) * fp.site_width_um
    own = (
        abs(target.x - tx) * fp.site_width_um
        + abs(target.y - ty) * fp.site_height_um
    )
    # Roll back: remove target from region lists, restore positions.
    for row in target.rows_spanned():
        region.segments[row].cells.remove(target)
    region.cells.remove(target)
    target.x = target.y = None
    design.restore_positions(snapshot)
    return moved + own


class TestOptimalPosition:
    def test_free_gap_prefers_desired_x(self):
        d = make_design(num_rows=1, row_width=20)
        t = add_unplaced(d, 2, 1, 0, 0)
        region, points = all_points(d, 2, 1)
        ev = evaluate(d, region, points[0], t, 7.0, 0.0, EvaluationMode.EXACT)
        assert ev.target_x == 7
        assert ev.cost == 0.0

    def test_fractional_desired_x_rounds_to_cheaper_site(self):
        d = make_design(num_rows=1, row_width=20)
        t = add_unplaced(d, 2, 1, 0, 0)
        region, points = all_points(d, 2, 1)
        ev = evaluate(d, region, points[0], t, 7.4, 0.0, EvaluationMode.EXACT)
        assert ev.target_x == 7
        sw = d.floorplan.site_width_um
        assert ev.cost == pytest.approx(0.4 * sw)

    def test_median_balances_pushes(self):
        # Fig. 9 flavor: target wants x=5 in a gap whose neighbors make
        # pushing left cheaper than staying put.
        d = make_design(num_rows=1, row_width=12)
        a = add_placed(d, 3, 1, 2, 0)  # left neighbor
        b = add_placed(d, 3, 1, 6, 0)  # right neighbor
        t = add_unplaced(d, 2, 1, 0, 0)
        region, points = all_points(d, 2, 1)
        mid = next(
            p for p in points if p.intervals[0].left is a and p.intervals[0].right is b
        )
        # Desired x = 5 overlaps b; the evaluator weighs pushing b right
        # vs sliding t left to 4 (b's critical position x_b = 6 - 2 = 4).
        ev = evaluate(d, region, mid, t, 5.0, 0.0, EvaluationMode.EXACT)
        cost_sim = simulate_cost(d, region, mid, t, ev.target_x, 5.0, 0.0)
        assert ev.cost == pytest.approx(cost_sim)
        # And the chosen x is no worse than any alternative in the gap.
        for x in range(mid.x_lo, mid.x_hi + 1):
            assert ev.cost <= simulate_cost(d, region, mid, t, x, 5.0, 0.0) + 1e-9

    def test_y_displacement_in_cost(self):
        d = make_design(num_rows=4, row_width=10)
        t = add_unplaced(d, 2, 1, 0, 0)
        region, points = all_points(d, 2, 1)
        row2 = next(p for p in points if p.bottom_row == 2)
        ev = evaluate(d, region, row2, t, 3.0, 0.0, EvaluationMode.EXACT)
        assert ev.cost >= 2 * d.floorplan.site_height_um


class TestExactMatchesSimulation:
    @pytest.mark.parametrize("trial", range(25))
    def test_exact_cost_equals_realized_displacement(self, trial):
        rng = random.Random(trial)
        d = random_legal_design(
            rng, num_rows=4, row_width=18, n_cells=rng.randint(4, 10)
        )
        tw, th = rng.randint(1, 3), rng.randint(1, 3)
        t = add_unplaced(d, tw, th, 0, 0)
        tx = rng.uniform(0, d.floorplan.row_width - tw)
        ty = rng.uniform(0, d.floorplan.num_rows - th)
        region, points = all_points(d, tw, th)
        for point in points[:20]:
            ev = evaluate(d, region, point, t, tx, ty, EvaluationMode.EXACT)
            sim = simulate_cost(d, region, point, t, ev.target_x, tx, ty)
            assert ev.cost == pytest.approx(sim), (
                f"trial {trial}: point {point.key()} cost {ev.cost} != "
                f"simulated {sim}"
            )

    @pytest.mark.parametrize("trial", range(10))
    def test_exact_position_is_argmin(self, trial):
        rng = random.Random(500 + trial)
        d = random_legal_design(rng, num_rows=3, row_width=14, n_cells=6)
        t = add_unplaced(d, 2, 1, 0, 0)
        tx = rng.uniform(0, 12)
        region, points = all_points(d, 2, 1)
        for point in points[:8]:
            ev = evaluate(d, region, point, t, tx, 0.0, EvaluationMode.EXACT)
            best_sim = min(
                simulate_cost(d, region, point, t, x, tx, 0.0)
                for x in range(point.x_lo, point.x_hi + 1)
            )
            assert ev.cost == pytest.approx(best_sim)


class TestApproximation:
    def test_approx_sees_only_neighbors(self):
        # Chain a-b with the gap right of b: the exact cost of pushing
        # into both includes a, the approximation only b.
        d = make_design(num_rows=1, row_width=12)
        a = add_placed(d, 3, 1, 0, 0)
        b = add_placed(d, 3, 1, 3, 0)  # abuts a
        t = add_unplaced(d, 4, 1, 0, 0)
        region, points = all_points(d, 4, 1)
        gap = next(p for p in points if p.intervals[0].left is b)
        # Desired far left: t at x=6 pushes nobody; below that both move.
        exact = evaluate(d, region, gap, t, 0.0, 0.0, EvaluationMode.EXACT)
        approx = evaluate(d, region, gap, t, 0.0, 0.0, EvaluationMode.APPROX)
        assert approx.cost <= exact.cost  # approx underestimates chains

    def test_approx_equals_exact_for_single_neighbors(self):
        d = make_design(num_rows=1, row_width=20)
        add_placed(d, 3, 1, 2, 0)
        add_placed(d, 3, 1, 12, 0)
        t = add_unplaced(d, 2, 1, 0, 0)
        region, points = all_points(d, 2, 1)
        for p in points:
            e = evaluate(d, region, p, t, 8.0, 0.0, EvaluationMode.EXACT)
            a = evaluate(d, region, p, t, 8.0, 0.0, EvaluationMode.APPROX)
            assert a.cost == pytest.approx(e.cost)
            assert a.target_x == e.target_x


class TestOptimalXNoCurves:
    def test_empty_pairs_snaps_like_the_main_path(self):
        # Regression: with no displacement curves the old code returned
        # int(round(desired_x)), and banker's rounding sent 5.5 to the
        # *even* neighbor 6; the shared floor/ceil candidate selection
        # breaks the tie toward the smaller equally-near site, as the
        # main path does.  Both evaluators must agree on it.
        from tests.reference_evaluation import optimal_x

        assert optimal_x([], 0, 10, 5.5) == 5
        assert optimal_x([], 0, 10, 4.5) == 4
        assert optimal_x([], 0, 10, 7.0) == 7
        # Clamping still applies.
        assert optimal_x([], 3, 10, 0.5) == 3
        assert optimal_x([], 0, 4, 9.0) == 4
        # An empty row: the target's own curve is the only one.
        d = make_design(num_rows=1, row_width=12)
        t = add_unplaced(d, 2, 1, 0, 0)
        region, [point] = all_points(d, 2, 1)
        for desired, expected in ((5.5, 5), (4.5, 4), (7.0, 7), (12.0, 10)):
            ev = evaluate(d, region, point, t, desired, 0.0, EvaluationMode.APPROX)
            assert ev.target_x == expected
