"""Differential tests of the production MLL stages against references.

* bounds — a fixpoint relaxation of every segment's ordering
  constraints, and the exact messages of the illegal-input errors;
* enumeration — :func:`enumerate_insertion_points_bruteforce`;
* evaluation — the per-point evaluator in ``tests/reference_evaluation``,
  on target positions and on exact float costs, in both modes;
* whole legalizations — the same run with the reference evaluator
  patched into MLL must reach the same placement digest.
"""

import math
import random
from unittest import mock

import pytest

from repro.core import (
    EvaluationMode,
    Legalizer,
    LegalizerConfig,
    MultiRowLocalLegalizer,
    PlacementBounds,
    build_insertion_intervals,
    compute_bounds,
    enumerate_insertion_points,
    enumerate_insertion_points_bruteforce,
    extract_local_region,
)
from repro.db import Rail
from repro.geometry import Rect
from repro.testing.faults import design_state_digest
from tests.conftest import (
    add_placed,
    add_unplaced,
    make_design,
    random_legal_design,
)
from tests.reference_evaluation import evaluate_points


def relaxed_bounds(region):
    """Reference bounds: raise every xL (lower every xR) to its segment
    constraints until nothing changes — the least (greatest) fixpoint."""
    left = {c.id: -math.inf for c in region.cells}
    right = {c.id: math.inf for c in region.cells}
    changed = True
    while changed:
        changed = False
        for seg in region.segments.values():
            floor = seg.x0
            for c in seg.cells:
                if left[c.id] < floor:
                    left[c.id], changed = floor, True
                floor = left[c.id] + c.width
            ceil = seg.x1
            for c in reversed(seg.cells):
                if right[c.id] > ceil - c.width:
                    right[c.id], changed = ceil - c.width, True
                ceil = right[c.id]
    return PlacementBounds(left=left, right=right)


def assert_scanline_order(points, feasible):
    """The scanline emits a point when its last interval opens.  OPEN
    events run in (x_lo, position in *feasible*) order; one interval's
    points follow by bottom row, then by their partners' opening order."""
    rank = {id(iv): (iv.x_lo, i) for i, iv in enumerate(feasible)}

    def key(p):
        ranks = [rank[id(iv)] for iv in p.intervals]
        last = max(ranks)
        return last, p.bottom_row, [r for r in ranks if r != last]

    assert points == sorted(points, key=key)


def reference_candidates(design, target, mode):
    """``evaluate_candidates`` with the per-point reference evaluator."""
    mll = MultiRowLocalLegalizer(design, LegalizerConfig(evaluation=mode))
    with mock.patch("repro.core.mll.evaluate_insertion_point", evaluate_points):
        return mll.evaluate_candidates(target, target.gp_x, target.gp_y)


def assert_same_evaluations(got, expected):
    assert len(got) == len(expected)
    for ev, ref in zip(got, expected):
        assert ev.point == ref.point
        assert ev.target_x == ref.target_x
        # Bit-identical, not approximately equal.
        assert ev.cost == ref.cost


class TestBoundsParity:
    def test_random_regions_match_object_kernel(self):
        rng = random.Random(21)
        for trial in range(30):
            d = random_legal_design(
                rng, num_rows=8, row_width=30, n_cells=18, max_height=3
            )
            region = extract_local_region(
                d, Rect(rng.randint(0, 10), rng.randint(0, 4), 20, 6)
            )
            assert compute_bounds(region) == relaxed_bounds(region), trial

    def test_multirow_chain_matches(self):
        d = make_design(num_rows=4, row_width=20)
        a = add_placed(d, 3, 1, 0, 0)
        m2 = add_placed(d, 2, 2, 4, 0, rail=Rail.GND)
        m3 = add_placed(d, 2, 3, 8, 0)
        e = add_placed(d, 4, 1, 12, 1)
        region = extract_local_region(d, Rect(0, 0, 20, 4))
        bounds = compute_bounds(region)
        assert bounds == relaxed_bounds(region)
        # The 2- and 3-row cells chain a's width into e's rows.
        assert [bounds.x_left(c.id) for c in (a, m2, m3, e)] == [0, 3, 5, 7]
        assert [bounds.x_right(c.id) for c in (a, m2, m3, e)] == [9, 12, 14, 16]


class TestBoundsErrorParity:
    def _raises(self, region, message):
        with pytest.raises(ValueError) as err:
            compute_bounds(region)
        assert str(err.value) == message

    def test_unplaced_cell_message(self):
        d = make_design(num_rows=1, row_width=10)
        a = add_placed(d, 3, 1, 0, 0, name="a")
        region = extract_local_region(d, Rect(0, 0, 10, 1))
        a.x = None
        self._raises(
            region, "local cell 'a' is unplaced; region placement is not legal"
        )

    def test_out_of_order_message(self):
        d = make_design(num_rows=1, row_width=20)
        a = add_placed(d, 3, 1, 0, 0, name="a")
        add_placed(d, 3, 1, 5, 0, name="b")
        region = extract_local_region(d, Rect(0, 0, 20, 1))
        a.x = 10  # jumps past b without reordering the segment list
        self._raises(
            region,
            "cells 'a' and 'b' are out of order in row 0; "
            "region placement is not legal",
        )

    def test_left_bound_violation_message(self):
        d = make_design(num_rows=1, row_width=20)
        add_placed(d, 3, 1, 0, 0, name="a")
        b = add_placed(d, 3, 1, 5, 0, name="b")
        region = extract_local_region(d, Rect(0, 0, 20, 1))
        b.x = 1  # overlaps a but keeps the order
        self._raises(
            region,
            "leftmost bound 3 of cell 'b' exceeds its current x 1; "
            "region placement is not legal",
        )

    def test_right_bound_violation_message(self):
        d = make_design(num_rows=1, row_width=20)
        a = add_placed(d, 4, 1, 10, 0, name="a")
        region = extract_local_region(d, Rect(0, 0, 20, 1))
        a.x = 18  # sticks out past the segment end
        self._raises(
            region,
            "rightmost bound 16 of cell 'a' is below its current x 18; "
            "region placement is not legal",
        )


class TestEnumerationParity:
    def test_random_regions_emit_identical_point_streams(self):
        rng = random.Random(33)
        for trial in range(25):
            d = random_legal_design(
                rng, num_rows=6, row_width=26, n_cells=14, max_height=3
            )
            region = extract_local_region(d, Rect(0, 0, 26, 6))
            bounds = compute_bounds(region)
            tw = rng.randint(1, 4)
            th = rng.randint(1, 3)
            feasible, discarded = build_insertion_intervals(region, bounds, tw)
            scan = enumerate_insertion_points(region, feasible, discarded, th)
            brute = enumerate_insertion_points_bruteforce(region, feasible, th)
            keys = [p.key() for p in scan]
            assert len(set(keys)) == len(keys), trial  # each emitted once
            assert sorted(scan, key=lambda p: p.key()) == sorted(
                brute, key=lambda p: p.key()
            ), trial
            assert_scanline_order(scan, feasible)

    def test_row_predicate_is_honored_identically(self):
        rng = random.Random(4)
        d = random_legal_design(rng, num_rows=6, row_width=26, n_cells=12)
        region = extract_local_region(d, Rect(0, 0, 26, 6))
        bounds = compute_bounds(region)
        feasible, discarded = build_insertion_intervals(region, bounds, 2)
        row_ok = lambda r: r % 2 == 0  # noqa: E731
        scan = enumerate_insertion_points(region, feasible, discarded, 2, row_ok)
        brute = enumerate_insertion_points_bruteforce(region, feasible, 2, row_ok)
        assert scan
        assert all(p.bottom_row % 2 == 0 for p in scan)
        assert sorted(p.key() for p in scan) == sorted(p.key() for p in brute)
        assert_scanline_order(scan, feasible)


class TestEvaluationParity:
    @pytest.mark.parametrize("mode", [EvaluationMode.APPROX, EvaluationMode.EXACT])
    def test_evaluate_candidates_bit_identical(self, mode):
        rng = random.Random(17)
        for trial in range(15):
            d = random_legal_design(
                rng, num_rows=8, row_width=30, n_cells=16, max_height=3
            )
            t = add_unplaced(
                d, rng.randint(1, 4), rng.randint(1, 3),
                rng.uniform(0, 26), rng.uniform(0, 5),
            )
            mll = MultiRowLocalLegalizer(d, LegalizerConfig(evaluation=mode))
            assert_same_evaluations(
                mll.evaluate_candidates(t, t.gp_x, t.gp_y),
                reference_candidates(d, t, mode),
            )
            d.cells.remove(t)

    def test_fractional_desired_position_costs_match_exactly(self):
        # Forces the fractional |x - desired_x| term through both
        # evaluators' summation orders.
        d = make_design(num_rows=2, row_width=16)
        add_placed(d, 3, 1, 1, 0)
        add_placed(d, 4, 1, 7, 0)
        add_placed(d, 2, 1, 13, 0)
        t = add_unplaced(d, 2, 1, 6.3, 0.4)
        mll = MultiRowLocalLegalizer(d, LegalizerConfig())
        got = mll.evaluate_candidates(t, 6.3, 0.4)
        assert got
        assert_same_evaluations(
            got, reference_candidates(d, t, EvaluationMode.APPROX)
        )


class TestEndToEndParity:
    def _build(self, seed):
        rng = random.Random(seed)
        d = random_legal_design(
            rng, num_rows=8, row_width=30, n_cells=10, max_height=3
        )
        for _ in range(14):
            w, h = rng.choice(((1, 1), (2, 1), (3, 1), (2, 2), (2, 3)))
            add_unplaced(d, w, h, rng.uniform(0, 27), rng.uniform(0, 6))
        return d

    def _legalize(self, seed):
        d = self._build(seed)
        result = Legalizer(d, LegalizerConfig(seed=seed)).run()
        return result.placed, design_state_digest(d)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_full_legalize_digest_parity(self, seed):
        production = self._legalize(seed)
        with mock.patch("repro.core.mll.evaluate_insertion_point", evaluate_points):
            reference = self._legalize(seed)
        assert production == reference

    def test_soa_kernel_survives_mll_rollbacks(self):
        # Failed try_place calls and audit rollbacks go through the
        # journal; the evaluator reads coordinates from the cells, so it
        # must keep agreeing with the reference after every one of them.
        d = self._build(3)
        mll = MultiRowLocalLegalizer(d, LegalizerConfig())
        probe = add_unplaced(d, 2, 1, 12.0, 3.0)
        rng = random.Random(9)
        for c in list(d.cells):
            if not c.is_placed and c is not probe:
                mll.try_place(c, rng.uniform(0, 27), rng.uniform(0, 6))
                assert_same_evaluations(
                    mll.evaluate_candidates(probe, 12.0, 3.0),
                    reference_candidates(d, probe, EvaluationMode.APPROX),
                )
