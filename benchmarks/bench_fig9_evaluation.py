"""Figure 9 micro-benchmark: insertion point evaluation.

Times the exact (critical positions over the push DAG + median) and the
approximate (neighbor-only, the paper's default) evaluation of every
insertion point of one MLL call, and reports the displacement curve the
figure plots.
"""

import random

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
from tests.conftest import add_unplaced, random_legal_design


def setup(n_cells=30):
    d = random_legal_design(
        random.Random(99), num_rows=8, row_width=60, n_cells=n_cells
    )
    t = add_unplaced(d, 3, 2, 30.0, 3.0, rail=d.floorplan.rows[3].bottom_rail)
    region = extract_local_region(d, Rect(0, 0, 60, 8))
    bounds = compute_bounds(region)
    feasible, discarded = build_insertion_intervals(region, bounds, t.width)
    points = enumerate_insertion_points(region, feasible, discarded, t.height)
    assert points
    return d, t, region, points


@pytest.mark.parametrize("mode", [EvaluationMode.APPROX, EvaluationMode.EXACT])
def test_evaluation_speed(benchmark, mode):
    d, t, region, points = setup()
    fp = d.floorplan

    result = benchmark(
        evaluate_insertion_point,
        region,
        points,
        t,
        30.0,
        3.0,
        fp.site_width_um,
        fp.site_height_um,
        mode,
    )
    assert [ev.point for ev in result] == points
    assert all(ev.point.x_lo <= ev.target_x <= ev.point.x_hi for ev in result)
    benchmark.extra_info["num_points"] = len(points)
    benchmark.extra_info["best_cost_um"] = round(min(ev.cost for ev in result), 4)


def test_displacement_curve_shape(benchmark):
    """The Figure 9(d) total-displacement curve: evaluate at every x."""
    from repro.core.evaluation import _critical_positions_exact
    from tests.reference_evaluation import total_cost

    d, t, region, points = setup()
    point = points[len(points) // 2]

    def curve():
        pairs = _critical_positions_exact(region, point, t.width)
        return [
            total_cost(pairs, x) for x in range(point.x_lo, point.x_hi + 1)
        ]

    costs = benchmark(curve)
    # V-shape: convex with a flat-or-single minimum (second differences
    # non-negative).
    for i in range(1, len(costs) - 1):
        assert costs[i + 1] - 2 * costs[i] + costs[i - 1] >= -1e-9
