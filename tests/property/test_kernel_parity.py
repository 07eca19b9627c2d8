"""Property-based differential tests of the production MLL stages.

Each stage is checked against an independent reference, with exact
equality throughout — never approximate closeness:

* the scanline enumerator against
  :func:`enumerate_insertion_points_bruteforce` (same point set, each
  point emitted once);
* the batched evaluator against the per-point evaluator in
  ``tests/reference_evaluation``, on target positions and float costs;
* EXACT evaluation against the local MILP optimum;
* a whole legalization against the same run with the reference
  evaluator patched into MLL, by placement digest.
"""

from __future__ import annotations

import random
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import solve_local_milp
from repro.core import (
    EvaluationMode,
    Legalizer,
    LegalizerConfig,
    MultiRowLocalLegalizer,
    build_insertion_intervals,
    compute_bounds,
    enumerate_insertion_points,
    enumerate_insertion_points_bruteforce,
    extract_local_region,
)
from repro.geometry import Rect
from repro.testing.faults import design_state_digest
from tests.conftest import add_unplaced, random_legal_design
from tests.reference_evaluation import evaluate_points

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

design_params = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 10_000),
        "num_rows": st.sampled_from([3, 4, 6, 8]),
        "row_width": st.sampled_from([14, 20, 28]),
        "n_cells": st.integers(3, 16),
    }
)

target_params = st.fixed_dictionaries(
    {
        "w": st.integers(1, 4),
        "h": st.integers(1, 3),
        "fx": st.floats(0, 1),
        "fy": st.floats(0, 1),
        "mode": st.sampled_from(list(EvaluationMode)),
    }
)

REFERENCE_EVALUATOR = mock.patch(
    "repro.core.mll.evaluate_insertion_point", evaluate_points
)


def _build(params):
    rng = random.Random(params["seed"])
    return random_legal_design(
        rng,
        num_rows=params["num_rows"],
        row_width=params["row_width"],
        n_cells=params["n_cells"],
    )


def _add_target(design, params, target):
    return add_unplaced(
        design,
        target["w"],
        target["h"],
        target["fx"] * (params["row_width"] - target["w"]),
        target["fy"] * (params["num_rows"] - target["h"]),
    )


@given(params=design_params, tw=st.integers(1, 4), th=st.integers(1, 3))
@SETTINGS
def test_bounds_and_enumeration_bit_identical(params, tw, th):
    design = _build(params)
    region = extract_local_region(
        design, Rect(0, 0, params["row_width"], params["num_rows"])
    )
    if not region.segments:
        return
    bounds = compute_bounds(region)
    for cell in region.cells:
        assert bounds.x_left(cell.id) <= cell.x <= bounds.x_right(cell.id)

    feasible, discarded = build_insertion_intervals(region, bounds, tw)
    scan = enumerate_insertion_points(region, feasible, discarded, th)
    brute = enumerate_insertion_points_bruteforce(region, feasible, th)
    keys = [p.key() for p in scan]
    assert len(set(keys)) == len(keys)
    assert sorted(scan, key=lambda p: p.key()) == sorted(
        brute, key=lambda p: p.key()
    )


@given(params=design_params, target=target_params)
@SETTINGS
def test_evaluated_candidates_bit_identical(params, target):
    design = _build(params)
    t = _add_target(design, params, target)
    mll = MultiRowLocalLegalizer(
        design, LegalizerConfig(evaluation=target["mode"])
    )
    got = mll.evaluate_candidates(t, t.gp_x, t.gp_y)
    with REFERENCE_EVALUATOR:
        expected = mll.evaluate_candidates(t, t.gp_x, t.gp_y)
    assert len(got) == len(expected)
    for ev, ref in zip(got, expected):
        assert ev.point == ref.point
        assert ev.target_x == ref.target_x
        assert ev.cost == ref.cost  # exact float equality


@given(params=design_params, target=target_params)
@SETTINGS
def test_exact_evaluation_equals_milp_optimum(params, target):
    design = _build(params)
    t = _add_target(design, params, target)
    mll = MultiRowLocalLegalizer(
        design, LegalizerConfig(rx=8, ry=3, evaluation=EvaluationMode.EXACT)
    )
    candidates = mll.evaluate_candidates(t, t.gp_x, t.gp_y)
    region = extract_local_region(design, mll.window_for(t, t.gp_x, t.gp_y))
    sol = solve_local_milp(design, region, t, t.gp_x, t.gp_y)
    if candidates:
        assert sol is not None
        assert abs(min(c.cost for c in candidates) - sol.cost_um) < 1e-6
    else:
        assert sol is None


@given(params=design_params, seed=st.integers(0, 1_000))
@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_full_legalization_digest_parity(params, seed):
    def run():
        design = _build(params)
        rng = random.Random(seed)
        for _ in range(6):
            w, h = rng.choice(((1, 1), (2, 1), (3, 1), (2, 2)))
            add_unplaced(
                design,
                w,
                h,
                rng.uniform(0, params["row_width"] - w),
                rng.uniform(0, params["num_rows"] - h),
            )
        # quarantine: a randomly infeasible instance must complete (with
        # the same stuck set) instead of raising LegalizationError.
        result = Legalizer(
            design, LegalizerConfig(seed=seed, quarantine=True)
        ).run()
        stuck = tuple(s.cell_id for s in result.stuck.cells)
        return result.placed, stuck, design_state_digest(design)

    production = run()
    with REFERENCE_EVALUATOR:
        reference = run()
    assert production == reference
