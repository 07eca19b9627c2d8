"""Transactional reconciliation and the ``--workers 2`` fault sweep.

The ISSUE acceptance criterion: raising at every journaled mutation
site must leave ``Design.snapshot_positions()`` and all segment cell
orderings byte-identical to the pre-call state *on a ``--workers 2``
engine run* as well as the serial driver.  Shard workers mutate
subprocess copies only, so every master-design mutation of an engine
run happens inside :func:`repro.engine.reconcile.reconcile` — which
runs in one transaction, making the whole merge atomic.
"""

import random

import pytest

from repro.core import LegalizationError, LegalizationResult, LegalizerConfig
from repro.engine import EngineConfig, ShardOutcome, legalize_sharded
from repro.engine.reconcile import reconcile
from repro.testing.faults import (
    FaultInjector,
    InjectedFault,
    count_journaled_mutations,
    design_state,
    design_state_digest,
    fault_sweep,
)
from tests.conftest import add_placed, add_unplaced, make_design


def outcome(shard_id, placements, unplaced=()):
    return ShardOutcome(
        shard_id=shard_id,
        placements=tuple(placements),
        unplaced_cell_ids=tuple(unplaced),
        stats=LegalizationResult(placed=len(placements)),
    )


def build_engine_design():
    """A small spread-out design that partitions into two real shards."""
    rng = random.Random(21)
    d = make_design(num_rows=4, row_width=60)
    for i in range(12):
        w, h = rng.choice([(2, 1), (3, 1), (4, 1), (2, 2)])
        add_unplaced(d, w, h, rng.uniform(0, 60 - w), rng.uniform(0, 3),
                     name=f"c{i}")
    return d


ENGINE_CFG = EngineConfig(
    workers=2, shards=2, halo_sites=8, serial_threshold=0
)
LEGAL_CFG = LegalizerConfig(rx=6, ry=1, seed=5)


def engine_factory():
    """A full ``workers=2`` sharded run as a fault-sweep action.

    Shard legalization happens in worker subprocesses on shard-view
    copies; the parent design is mutated only during reconciliation,
    inside its transaction — so a fault at any journaled site unwinds
    the entire engine run.
    """
    d = build_engine_design()
    return d, lambda: legalize_sharded(d, LEGAL_CFG, ENGINE_CFG)


class TestWorkersTwoSweep:
    def test_engine_runs_sharded_with_two_workers(self):
        d, action = engine_factory()
        res = action()
        assert res.parallel and res.workers == 2 and res.num_shards == 2
        assert all(c.is_placed for c in d.cells)

    def test_full_sweep_restores_state(self):
        """Acceptance: every journaled site of a workers=2 run restores
        the master design byte-identically on injection."""
        report = fault_sweep(engine_factory)
        assert report.sites >= 12  # at least one delta apply per cell
        assert "design.place" in set(report.tripped)

    def test_snapshot_positions_identical_mid_merge(self):
        """Spell the criterion out: trip mid-reconcile, compare
        snapshot_positions, orderings and the state digest directly."""
        d, action = engine_factory()
        positions = d.snapshot_positions()
        orderings = [
            tuple(c.id for c in seg.cells) for seg in d.floorplan.segments
        ]
        digest = design_state_digest(d)
        with FaultInjector(d, trip_at=5):
            with pytest.raises(InjectedFault):
                action()
        assert d.snapshot_positions() == positions
        assert [
            tuple(c.id for c in seg.cells) for seg in d.floorplan.segments
        ] == orderings
        assert design_state_digest(d) == digest
        # The design is still fully usable: the same run now succeeds.
        assert action().parallel

    def test_sweep_is_deterministic_across_runs(self):
        d1, a1 = engine_factory()
        d2, a2 = engine_factory()
        assert count_journaled_mutations(d1, a1) == count_journaled_mutations(
            d2, a2
        )


class TestReconcileSweep:
    """Subprocess-free sweep over reconcile with synthetic seam conflicts,
    covering the conflict-diversion and seam-pass sites cheaply."""

    def factory(self):
        d = make_design(num_rows=4, row_width=40)
        a = add_unplaced(d, 4, 1, 10.0, 1.0, name="a")
        b = add_unplaced(d, 4, 1, 10.0, 1.0, name="b")
        c = add_unplaced(d, 4, 1, 30.0, 2.0, name="c")
        outs = [
            outcome(0, [(a.id, 10, 1)]),
            outcome(1, [(b.id, 10, 1), (c.id, 30, 2)]),  # b conflicts
        ]
        cfg = LegalizerConfig(rx=6, ry=1, seed=0)
        return d, lambda: reconcile(d, outs, config=cfg)

    def test_reconcile_sweep_restores_state(self):
        report = fault_sweep(self.factory)
        # 3 applied/seam placements minimum: apply a, apply c, seam b.
        assert report.sites >= 3
        assert "design.place" in set(report.tripped)


class TestReconcileRollback:
    def build_jammed(self):
        """A seam conflict whose loser cannot be placed anywhere: the
        single row is fixed solid except one 4-wide gap both cells want."""
        d = make_design(num_rows=1, row_width=12)
        add_placed(d, 4, 1, 0, 0, fixed=True)
        add_placed(d, 4, 1, 4, 0, fixed=True)
        a = add_unplaced(d, 4, 1, 8.0, 0.0, name="a")
        b = add_unplaced(d, 4, 1, 8.0, 0.0, name="b")
        outs = [outcome(0, [(a.id, 8, 0)]), outcome(1, [(b.id, 8, 0)])]
        return d, a, b, outs

    def test_failed_seam_pass_rolls_back_applied_deltas(self):
        """When the seam pass cannot clear a conflict, the transaction
        unwinds the deltas that *were* applied: no half-merged design."""
        d, a, b, outs = self.build_jammed()
        before = design_state(d)
        cfg = LegalizerConfig(rx=4, ry=0, max_rounds=3, seed=0)
        with pytest.raises(LegalizationError):
            reconcile(d, outs, config=cfg)
        assert design_state(d) == before
        assert not a.is_placed and not b.is_placed

    def test_successful_reconcile_detaches_journal(self):
        d = make_design(num_rows=2, row_width=20)
        a = add_unplaced(d, 3, 1, 2.0, 0.0, name="a")
        reconcile(d, [outcome(0, [(a.id, 2, 0)])])
        assert d.journal is None
        assert a.is_placed
