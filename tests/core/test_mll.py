"""Unit tests for the MLL primitive (paper Section 4)."""

import random
from dataclasses import replace

import pytest

from repro.checker import verify_placement
from repro.core import EvaluationMode, LegalizerConfig, MultiRowLocalLegalizer
from repro.db import Rail
from tests.conftest import add_placed, add_unplaced, make_design, random_legal_design


class TestSuccess:
    def test_places_in_free_space(self):
        d = make_design()
        t = add_unplaced(d, 3, 1, 10.3, 2.4)
        mll = MultiRowLocalLegalizer(d, LegalizerConfig(rx=8, ry=2))
        result = mll.try_place(t, t.gp_x, t.gp_y)
        assert result.success
        assert (t.x, t.y) == (10, 2)
        assert result.cost == pytest.approx(
            0.3 * d.floorplan.site_width_um + 0.4 * d.floorplan.site_height_um
        )
        assert verify_placement(d) == []

    def test_pushes_neighbors_when_occupied(self):
        d = make_design(num_rows=1, row_width=12)
        a = add_placed(d, 4, 1, 4, 0)
        t = add_unplaced(d, 4, 1, 4.0, 0.0)
        mll = MultiRowLocalLegalizer(d, LegalizerConfig(rx=6, ry=0))
        assert mll.try_place(t, 4.0, 0.0).success
        assert verify_placement(d) == []
        assert t.x is not None and a.x is not None
        assert abs(t.x - 4) <= 4  # t landed near its target

    def test_multi_row_target_respects_parity(self):
        d = make_design(first_rail=Rail.GND)
        t = add_unplaced(d, 2, 2, 5.0, 2.0, rail=Rail.VDD)
        mll = MultiRowLocalLegalizer(d, LegalizerConfig())
        assert mll.try_place(t, 5.0, 2.0).success
        assert t.y % 2 == 1  # VDD-bottom rows are the odd ones
        assert verify_placement(d) == []

    def test_parity_ignored_when_relaxed(self):
        d = make_design(first_rail=Rail.GND)
        t = add_unplaced(d, 2, 2, 5.0, 2.0, rail=Rail.VDD)
        mll = MultiRowLocalLegalizer(d, LegalizerConfig(power_aligned=False))
        assert mll.try_place(t, 5.0, 2.0).success
        assert t.y == 2  # nearest row, parity notwithstanding
        assert verify_placement(d, power_aligned=False) == []

    def test_insertion_points_counted(self):
        d = make_design(num_rows=1, row_width=30)
        add_placed(d, 2, 1, 10, 0)
        t = add_unplaced(d, 2, 1, 10.0, 0.0)
        mll = MultiRowLocalLegalizer(d, LegalizerConfig(rx=5, ry=0))
        result = mll.try_place(t, 10.0, 0.0)
        assert result.success
        assert result.num_insertion_points == 2  # left and right of the cell


class TestAbort:
    def test_full_region_fails_without_mutation(self):
        d = make_design(num_rows=1, row_width=10)
        add_placed(d, 5, 1, 0, 0)
        add_placed(d, 5, 1, 5, 0)
        t = add_unplaced(d, 2, 1, 4.0, 0.0)
        snapshot = d.snapshot_positions()
        mll = MultiRowLocalLegalizer(d, LegalizerConfig(rx=6, ry=0))
        result = mll.try_place(t, 4.0, 0.0)
        assert not result.success
        assert not t.is_placed
        assert d.snapshot_positions() == snapshot

    def test_target_wider_than_any_gap_fails(self):
        d = make_design(num_rows=1, row_width=10)
        t = add_unplaced(d, 20, 1, 0.0, 0.0)
        mll = MultiRowLocalLegalizer(d, LegalizerConfig(rx=30, ry=0))
        assert not mll.try_place(t, 0.0, 0.0).success

    def test_already_placed_target_rejected(self):
        d = make_design()
        t = add_placed(d, 2, 1, 0, 0)
        mll = MultiRowLocalLegalizer(d)
        with pytest.raises(ValueError):
            mll.try_place(t, 0.0, 0.0)


class TestOptimality:
    @pytest.mark.parametrize("trial", range(15))
    def test_exact_mode_never_worse_than_any_candidate(self, trial):
        rng = random.Random(trial)
        d = random_legal_design(rng, num_rows=4, row_width=16, n_cells=8)
        t = add_unplaced(d, rng.randint(1, 3), rng.randint(1, 2), 0, 0,
                         rail=Rail.GND)
        tx = rng.uniform(0, 12)
        ty = rng.uniform(0, 3)
        cfg = LegalizerConfig(rx=16, ry=4, evaluation=EvaluationMode.EXACT)
        mll = MultiRowLocalLegalizer(d, cfg)
        candidates = mll.evaluate_candidates(t, tx, ty)
        if not candidates:
            return
        best = min(c.cost for c in candidates)
        result = mll.try_place(t, tx, ty)
        assert result.success
        assert result.cost == pytest.approx(best)
        assert verify_placement(d, require_all_placed=False) == []

    def test_window_size_matches_paper_formula(self):
        d = make_design()
        t = add_unplaced(d, 3, 2, 10.0, 3.0, rail=Rail.GND)
        mll = MultiRowLocalLegalizer(d, LegalizerConfig(rx=30, ry=5))
        w = mll.window_for(t, 10.0, 3.0)
        assert (w.x, w.y) == (10 - 30, 3 - 5)
        assert w.w == 2 * 30 + 3
        assert w.h == 2 * 5 + 2


def first_min(candidates):
    """The first candidate of least cost (later equal costs lose)."""
    best = None
    for ev in candidates:
        if best is None or ev.cost < best.cost:
            best = ev
    return best


class TestTieBreakParity:
    """try_place realizes exactly the first minimum-cost entry of
    evaluate_candidates, under the same displacement cap."""

    def _check(self, d, t, tx, ty, config):
        """Returns the capped and the uncapped candidate lists."""
        mll = MultiRowLocalLegalizer(d, config)
        candidates = mll.evaluate_candidates(t, tx, ty)
        uncapped = mll.evaluate_candidates(t, tx, ty, apply_displacement_cap=False)
        # The vectorized cap keeps exactly what the scalar formula keeps.
        cap = config.max_target_displacement_um
        kept = [
            ev
            for ev in uncapped
            if cap is None
            or not d.floorplan.displacement_um(ev.target_x - tx, ev.bottom_row - ty) > cap
        ]
        assert candidates == kept
        expected = first_min(candidates)
        result = mll.try_place(t, tx, ty)
        assert result.num_insertion_points == len(uncapped)
        if expected is None:
            assert not result.success
            assert not t.is_placed
        else:
            assert result.success
            chosen = result.chosen
            assert chosen.point.key() == expected.point.key()
            assert (chosen.target_x, chosen.cost) == (expected.target_x, expected.cost)
            assert (t.x, t.y) == (expected.target_x, expected.bottom_row)
        return candidates, uncapped

    @pytest.mark.parametrize("mode", [EvaluationMode.APPROX, EvaluationMode.EXACT])
    @pytest.mark.parametrize("capped", [False, True])
    def test_seeded_designs(self, mode, capped):
        rng = random.Random(31 if capped else 37)
        outcomes = set()
        for _ in range(30):
            d = random_legal_design(rng, num_rows=8, row_width=30, n_cells=18)
            w, h = rng.randint(1, 4), rng.randint(1, 3)
            tx, ty = rng.uniform(0, 30 - w), rng.uniform(0, 8 - h)
            t = add_unplaced(d, w, h, tx, ty)
            cap = None
            if capped:
                cap = d.floorplan.displacement_um(
                    rng.uniform(0, 4), rng.choice((0, 0, 1))
                )
            config = LegalizerConfig(
                rx=8, ry=2, evaluation=mode, max_target_displacement_um=cap
            )
            candidates, uncapped = self._check(d, t, tx, ty, config)
            outcomes.add(
                "all" if len(candidates) == len(uncapped)
                else "some" if candidates else "none"
            )
        if capped:  # it rejects some candidates, and now and then all
            assert {"some", "none"} <= outcomes
        else:
            assert outcomes == {"all"}

    @pytest.mark.parametrize("mode", [EvaluationMode.APPROX, EvaluationMode.EXACT])
    @pytest.mark.parametrize("capped", [False, True])
    def test_equal_cost_candidates(self, mode, capped):
        # Rows 1 and 2 are mirror images around the desired y = 1.5, so
        # candidates come in pairs of equal cost; the first listed must
        # win.  The cap, when set, equals the own displacement of the
        # tied winners: they stay, farther candidates go.
        def build():
            d = make_design(num_rows=4, row_width=20)
            for row in (1, 2):
                add_placed(d, 4, 1, 8, row)
            return d, add_unplaced(d, 2, 1, 9.0, 1.5)

        config = LegalizerConfig(rx=6, ry=1, evaluation=mode)
        if capped:
            d, t = build()
            uncapped = MultiRowLocalLegalizer(d, config).evaluate_candidates(t, 9.0, 1.5)
            best = first_min(uncapped)
            config = replace(
                config,
                max_target_displacement_um=d.floorplan.displacement_um(
                    best.target_x - 9.0, best.bottom_row - 1.5
                ),
            )
        d, t = build()
        candidates, uncapped = self._check(d, t, 9.0, 1.5, config)
        least = min(ev.cost for ev in candidates)
        assert sum(ev.cost == least for ev in candidates) >= 2
        if capped:
            assert len(candidates) < len(uncapped)
