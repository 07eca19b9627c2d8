"""Executable versions of the paper's illustrative figures.

The figures are conceptual drawings, not data plots; these tests encode
the *behaviour* each figure depicts so the claims stay checkable:

* Figure 5 — a 3x2 target among mixed-height cells has several feasible
  insertion points with different costs; the optimum displaces least.
* Figure 6 — leftmost/rightmost placements bound every cell's slack.
* Figure 9 — the displacement curve is V-shaped per cell and the median
  of critical positions minimizes the total.
"""

import pytest

from repro.checker import verify_placement
from repro.core import (
    EvaluationMode,
    LegalizerConfig,
    MultiRowLocalLegalizer,
    compute_bounds,
    extract_local_region,
)
from repro.db import Rail
from repro.geometry import Rect
from tests.conftest import add_placed, add_unplaced, make_design


class TestFigure5InsertionChoice:
    """A multi-row target must pick gaps across consecutive segments."""

    def build(self):
        # Four rows; five local cells a-e of mixed heights, loosely
        # packed so multiple insertion points are feasible — the shape
        # of the paper's Figure 5 example.
        d = make_design(num_rows=4, row_width=12)
        cells = {
            "a": add_placed(d, 3, 1, 0, 1, name="a"),
            "b": add_placed(d, 3, 1, 2, 3, name="b"),
            "c": add_placed(d, 2, 2, 5, 1, rail=d.floorplan.rows[1].bottom_rail, name="c"),
            "d": add_placed(d, 3, 1, 8, 1, name="d"),
            "e": add_placed(d, 4, 1, 3, 0, name="e"),
        }
        return d, cells

    def test_region_is_legal_input(self):
        d, _ = self.build()
        assert verify_placement(d) == []

    def test_multiple_feasible_insertion_points(self):
        d, _ = self.build()
        t = add_unplaced(d, 3, 2, 5.0, 1.0, rail=d.floorplan.rows[1].bottom_rail, name="t")
        mll = MultiRowLocalLegalizer(
            d, LegalizerConfig(rx=12, ry=3, evaluation=EvaluationMode.EXACT)
        )
        candidates = mll.evaluate_candidates(t, 5.0, 1.0)
        assert len(candidates) >= 3  # several ways to insert
        costs = sorted(c.cost for c in candidates)
        assert costs[0] < costs[-1]  # ... with genuinely different costs

    def test_chosen_point_minimizes_measured_displacement(self):
        d, cells = self.build()
        before = {name: c.x for name, c in cells.items()}
        t = add_unplaced(d, 3, 2, 5.0, 1.0, rail=d.floorplan.rows[1].bottom_rail, name="t")
        mll = MultiRowLocalLegalizer(
            d, LegalizerConfig(rx=12, ry=3, evaluation=EvaluationMode.EXACT)
        )
        candidates = mll.evaluate_candidates(t, 5.0, 1.0)
        best = min(c.cost for c in candidates)
        result = mll.try_place(t, 5.0, 1.0)
        assert result.success
        fp = d.floorplan
        measured = sum(
            abs(c.x - before[name]) * fp.site_width_um
            for name, c in cells.items()
        ) + abs(t.x - 5.0) * fp.site_width_um + abs(t.y - 1.0) * fp.site_height_um
        assert measured == pytest.approx(best)
        assert verify_placement(d) == []

    def test_infeasible_insertion_points_are_absent(self):
        # Gaps too tight for the target (negative intervals, Fig. 5(e/f))
        # never appear among the candidates.
        d, _ = self.build()
        t = add_unplaced(d, 9, 2, 5.0, 1.0, rail=d.floorplan.rows[1].bottom_rail)
        mll = MultiRowLocalLegalizer(d, LegalizerConfig(rx=12, ry=3))
        candidates = mll.evaluate_candidates(t, 5.0, 1.0)
        for ev in candidates:
            assert ev.point.x_hi >= ev.point.x_lo


class TestFigure6Bounds:
    def test_slack_visible_in_bounds(self):
        d = make_design(num_rows=2, row_width=10)
        a = add_placed(d, 2, 1, 1, 0)
        m = add_placed(d, 2, 2, 4, 0, rail=d.floorplan.rows[0].bottom_rail)
        b = add_placed(d, 2, 1, 7, 1)
        region = extract_local_region(d, Rect(0, 0, 10, 2))
        bounds = compute_bounds(region)
        # Leftmost: a to 0, m packs against a, b packs against m.
        assert bounds.x_left(a.id) == 0
        assert bounds.x_left(m.id) == 2
        assert bounds.x_left(b.id) == 4
        # Rightmost: b to 8, m limited by b in row 1, a limited by m.
        assert bounds.x_right(b.id) == 8
        assert bounds.x_right(m.id) == 6
        assert bounds.x_right(a.id) == 4


class TestFigure9MedianEvaluation:
    def test_total_curve_is_convex_in_target_position(self):
        from repro.core import (
            build_insertion_intervals,
            enumerate_insertion_points,
        )
        from repro.core.evaluation import _critical_positions_exact
        from tests.reference_evaluation import total_cost

        d = make_design(num_rows=1, row_width=16)
        add_placed(d, 3, 1, 2, 0, name="c")
        add_placed(d, 3, 1, 6, 0, name="d")
        add_placed(d, 3, 1, 10, 0, name="e")
        t = add_unplaced(d, 2, 1, 7.0, 0.0, name="t")
        region = extract_local_region(d, Rect(0, 0, 16, 1))
        bounds = compute_bounds(region)
        feasible, discarded = build_insertion_intervals(region, bounds, 2)
        points = enumerate_insertion_points(region, feasible, discarded, 1)
        mid = next(
            p
            for p in points
            if p.intervals[0].left is not None
            and p.intervals[0].left.name == "d"
            and p.intervals[0].right is not None
        )
        pairs = _critical_positions_exact(region, mid, 2)
        xs = list(range(mid.x_lo, mid.x_hi + 1))
        costs = [total_cost(pairs, x) for x in xs]
        # Convexity: second differences never negative.
        for i in range(1, len(costs) - 1):
            assert costs[i + 1] - 2 * costs[i] + costs[i - 1] >= -1e-9

    def test_each_cell_curve_matches_equation_3(self):
        from tests.reference_evaluation import total_cost

        # One cell with critical positions (4, 7): the curve must be
        # x<4 -> 4-x, 4..7 -> 0, x>7 -> x-7 (paper equation (3)).
        pairs = [(4.0, 7.0)]
        assert total_cost(pairs, 2) == 2
        assert total_cost(pairs, 4) == 0
        assert total_cost(pairs, 5.5) == 0
        assert total_cost(pairs, 7) == 0
        assert total_cost(pairs, 9) == 2
