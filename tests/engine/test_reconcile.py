"""Seam reconciliation (repro.engine.reconcile)."""

import pytest

from repro.checker import verify_placement
from repro.core import LegalizationResult, LegalizerConfig
from repro.engine import ReconcileError, ShardOutcome, apply_shard_outcomes
from repro.engine.reconcile import reconcile
from tests.conftest import add_unplaced, make_design


def outcome(shard_id, placements, unplaced=()):
    return ShardOutcome(
        shard_id=shard_id,
        placements=tuple(placements),
        unplaced_cell_ids=tuple(unplaced),
        stats=LegalizationResult(placed=len(placements)),
    )


class TestSeamConflicts:
    def test_injected_same_site_conflict_is_cleared(self):
        """Two shards claim the same seam site; the reconciler keeps the
        lower shard's delta and re-legalizes the other cell."""
        design = make_design(num_rows=4, row_width=40)
        a = add_unplaced(design, 4, 1, 10.0, 1.0, name="a")
        b = add_unplaced(design, 4, 1, 10.0, 1.0, name="b")

        report = reconcile(
            design,
            [outcome(0, [(a.id, 10, 1)]), outcome(1, [(b.id, 10, 1)])],
            config=LegalizerConfig(seed=0),
        )

        assert report.applied == 1
        assert report.conflicts == 1
        assert report.seam_stats.placed == 1
        assert (a.x, a.y) == (10, 1)  # shard-id order: shard 0 wins
        assert b.is_placed and (b.x, b.y) != (10, 1)
        assert verify_placement(design) == []

    def test_partial_overlap_conflict_is_cleared(self):
        design = make_design(num_rows=4, row_width=40)
        a = add_unplaced(design, 4, 1, 10.0, 1.0, name="a")
        b = add_unplaced(design, 4, 1, 12.0, 1.0, name="b")
        report = reconcile(
            design,
            [outcome(0, [(a.id, 10, 1)]), outcome(1, [(b.id, 8, 1)])],
            config=LegalizerConfig(seed=0),
        )
        assert report.conflicts == 1
        assert verify_placement(design) == []

    def test_conflict_free_merge_applies_everything_verbatim(self):
        design = make_design(num_rows=4, row_width=40)
        a = add_unplaced(design, 4, 1, 2.0, 0.0, name="a")
        b = add_unplaced(design, 4, 1, 30.0, 2.0, name="b")
        report = reconcile(
            design,
            [outcome(0, [(a.id, 2, 0)]), outcome(1, [(b.id, 30, 2)])],
        )
        assert (report.applied, report.conflicts) == (2, 0)
        assert report.seam_stats.placed == 0
        assert [(a.x, a.y), (b.x, b.y)] == [(2, 0), (30, 2)]
        assert verify_placement(design) == []

    def test_shard_failures_are_retried_on_the_full_design(self):
        design = make_design(num_rows=4, row_width=40)
        a = add_unplaced(design, 4, 1, 10.0, 1.0, name="a")
        b = add_unplaced(design, 4, 1, 10.0, 1.0, name="b")
        report = reconcile(
            design,
            [outcome(0, [(a.id, 10, 1)]), outcome(1, [], unplaced=[b.id])],
        )
        assert report.shard_failures == 1
        assert b.is_placed
        assert verify_placement(design) == []


class TestDefensiveChecks:
    def test_double_ownership_is_an_error(self):
        design = make_design(num_rows=4, row_width=40)
        a = add_unplaced(design, 4, 1, 10.0, 1.0, name="a")
        with pytest.raises(ReconcileError, match="two shards"):
            reconcile(
                design,
                [outcome(0, [(a.id, 10, 1)]), outcome(1, [(a.id, 20, 1)])],
            )

    def test_apply_is_shard_id_ordered_not_list_ordered(self):
        design = make_design(num_rows=4, row_width=40)
        a = add_unplaced(design, 4, 1, 10.0, 1.0, name="a")
        b = add_unplaced(design, 4, 1, 10.0, 1.0, name="b")
        # Pass outcomes out of order: shard 0's delta must still win.
        conflicts, report = apply_shard_outcomes(
            design,
            [outcome(1, [(b.id, 10, 1)]), outcome(0, [(a.id, 10, 1)])],
        )
        assert (a.x, a.y) == (10, 1)
        assert conflicts == [b]
        assert report.applied == 1
