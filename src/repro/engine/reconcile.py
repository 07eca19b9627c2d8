"""Seam reconciliation: merge shard deltas back into the master design.

Shards legalize independently, so two adjacent shards can place cells
into the same sites of their shared seam band.  The reconciler applies
shard deltas in shard-id order (deterministic regardless of worker
scheduling), diverting any cell whose position is no longer legal on the
master design into a *conflict set*; the conflict set — plus cells the
shards failed to place, plus fence-region cells the partitioner deferred
— is then legalized by one final sequential MLL pass over the full
design.  Because that pass is the unmodified Algorithm 1 driver, the
merged placement satisfies :func:`~repro.checker.verify_placement`
exactly like a sequential run would.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.checker import verify_placement
from repro.core.config import LegalizerConfig
from repro.core.instrumentation import MllTelemetry
from repro.core.legalizer import LegalizationResult, Legalizer
from repro.db.cell import Cell
from repro.db.design import Design
from repro.db.journal import Transaction
from repro.engine.errors import EngineError
from repro.engine.shard_worker import ShardOutcome


class ReconcileError(EngineError):
    """The merged placement failed independent verification."""


@dataclass(slots=True)
class SeamReport:
    """What the reconciler saw and did."""

    applied: int = 0
    """Shard placements applied verbatim."""

    conflicts: int = 0
    """Shard placements rejected at merge time (cross-seam overlap or a
    position taken by an earlier shard)."""

    shard_failures: int = 0
    """Cells their shard could not place (retried on the full design)."""

    deferred: int = 0
    """Fence-region cells that skipped sharding entirely."""

    seam_stats: LegalizationResult = field(default_factory=LegalizationResult)
    """Statistics of the final sequential pass over the conflict set."""

    @property
    def seam_cells(self) -> int:
        """Total cells legalized by the final sequential pass."""
        return self.conflicts + self.shard_failures + self.deferred


def apply_shard_outcomes(
    design: Design,
    outcomes: list[ShardOutcome],
    power_aligned: bool = True,
) -> tuple[list[Cell], SeamReport]:
    """Apply shard deltas to *design*; return the conflict set.

    Outcomes are applied in shard-id order.  A delta is applied verbatim
    when the master design still admits it (:meth:`Design.can_place`
    re-checks containment, rail parity, fences and overlap against
    everything applied so far); otherwise the cell joins the conflict
    list, preserving shard order.
    """
    report = SeamReport()
    by_id = {c.id: c for c in design.cells}
    conflicts: list[Cell] = []
    for outcome in sorted(outcomes, key=lambda o: o.shard_id):
        for cell_id, x, y in outcome.placements:
            cell = by_id[cell_id]
            if cell.is_placed:  # defensive: double ownership is a bug
                raise ReconcileError(
                    f"cell {cell.name!r} placed by two shards"
                )
            if design.can_place(cell, x, y, power_aligned=power_aligned):
                # repro-lint: disable=RL3 -- reconcile() opens the
                # Transaction; this helper is its journaled body
                design.place(cell, x, y, power_aligned=power_aligned,
                             validate=False)
                report.applied += 1
            else:
                conflicts.append(cell)
                report.conflicts += 1
        for cell_id in outcome.unplaced_cell_ids:
            conflicts.append(by_id[cell_id])
            report.shard_failures += 1
    return conflicts, report


def reconcile(
    design: Design,
    outcomes: list[ShardOutcome],
    config: LegalizerConfig | None = None,
    deferred_cells: list[Cell] | None = None,
    telemetry: MllTelemetry | None = None,
) -> SeamReport:
    """Merge *outcomes* into *design* and clear every seam conflict.

    Raises :class:`~repro.core.legalizer.LegalizationError` when even the
    full-design sequential pass cannot place a conflicted cell (the same
    contract as :meth:`Legalizer.run`) — unless ``config.quarantine`` is
    on, in which case those cells land in ``seam_stats.stuck`` and the
    merge commits with partial legality.  Raises :class:`ReconcileError`
    when the independent checker still finds a violation among the
    *placed* cells afterwards.

    The whole merge — delta application, the final sequential pass and
    the checker — runs inside one :class:`~repro.db.journal.Transaction`:
    any exception (a failed seam pass, a checker violation, an injected
    fault) rolls the master design back to its pre-reconcile state
    before propagating, instead of leaving a half-merged placement
    behind.
    """
    config = config if config is not None else LegalizerConfig()
    with Transaction(design):
        conflicts, report = apply_shard_outcomes(
            design, outcomes, power_aligned=config.power_aligned
        )
        if deferred_cells:
            conflicts = conflicts + list(deferred_cells)
            report.deferred = len(deferred_cells)

        if conflicts:
            seam_legalizer = Legalizer(design, config)
            if telemetry is not None:
                seam_legalizer.mll.telemetry = telemetry
            # origin="seam": under config.quarantine, cells this final
            # pass cannot place are reported (result.stuck) instead of
            # raised, tagged as seam-pass quarantines; the merge then
            # commits with partial legality and the checker below
            # audits the placed subset (require_all_placed=False).
            report.seam_stats = seam_legalizer.run(
                cells=conflicts, origin="seam"
            )

        violations = verify_placement(
            design,
            power_aligned=config.power_aligned,
            require_all_placed=False,
        )
        if violations:
            head = "; ".join(str(v) for v in violations[:5])
            raise ReconcileError(
                f"merged placement has {len(violations)} violations: {head}"
            )
    return report
