"""The shard executor: fan shards out to a supervised pool and merge back.

``ShardedLegalizer`` is the parallel counterpart of
:class:`~repro.core.legalizer.Legalizer`:

1. partition the floorplan into halo shards
   (:mod:`repro.engine.partition`);
2. legalize every shard with the unmodified sequential legalizer,
   dispatched through a :class:`~repro.engine.transport.ShardTransport`
   — worker processes serving a :class:`~repro.engine.supervisor.
   ShardQueue` (``workers > 1``: per-shard timeouts, crash
   containment, bounded retry with backoff, the degradation ladder),
   in-process (``workers=1``, still exercising the sharded path when
   ``shards > 1``), or remote ``repro worker`` hosts over TCP
   (:mod:`repro.engine.remote`: leases, heartbeats, work stealing);
3. reconcile the seams (:mod:`repro.engine.reconcile`) so the merged
   placement passes the independent checker exactly like a sequential
   run.

Fault tolerance: an attached :class:`~repro.engine.checkpoint.
CheckpointManager` persists every completed shard's deltas with
atomic write-rename, and a killed run resumes from the snapshot,
skipping finished shards.  Under ``LegalizerConfig.quarantine`` a run
whose seam pass cannot place every cell completes with the stragglers
reported in ``EngineResult.stuck`` instead of raising mid-run.

Determinism: the partition is a pure function of the design and the
configs; every shard runs with a seed derived from ``config.seed`` and
its shard id, and a *retried or resumed* shard reuses that same seed;
deltas are applied in shard-id order.  Worker scheduling, crashes,
retries and resumes therefore cannot influence the final coordinates —
``workers=N`` is bit-reproducible for fixed seed and fixed shard count,
with or without faults.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.config import LegalizerConfig
from repro.core.instrumentation import MllTelemetry
from repro.core.legalizer import (
    LegalizationResult,
    Legalizer,
    StuckCellReport,
)
from repro.db.cell import Cell
from repro.db.design import Design
from repro.engine.checkpoint import CheckpointManager
from repro.engine.config import EngineConfig
from repro.engine.partition import Partition, Shard, partition_design
from repro.engine.reconcile import SeamReport, reconcile
from repro.engine.supervisor import SupervisionReport
from repro.engine.shard_worker import (
    ShardCellSpec,
    ShardTask,
    shard_seed,
)
from repro.engine.transport import ShardTransport, make_transport
from repro.testing.faults import ShardFaultSpec


@dataclass(slots=True)
class EngineResult:
    """Outcome of one engine run."""

    result: LegalizationResult
    """Merged run statistics (shards + seam pass); ``rounds`` is the
    max across shards; ``runtime_s`` is their **summed CPU time** (it
    grows with the shard count and must never be used for speedups —
    compare :attr:`wall_time_s` instead)."""

    workers: int = 1
    num_shards: int = 1
    halo_sites: int = 0
    parallel: bool = False
    """False when the run fell back to the plain sequential path."""

    degraded: bool = False
    """True when the sequential path was reached through the
    supervisor's last ladder rung (shards failed every retry), as
    opposed to the size-based serial threshold."""

    seam: SeamReport = field(default_factory=SeamReport)
    shard_stats: list[LegalizationResult] = field(default_factory=list)
    """Per-shard statistics in shard-id order (empty on fallback)."""

    supervision: SupervisionReport | None = None
    """What the supervisor saw (``None`` on in-process ``workers=1`` and
    sequential runs): attempts, crashes, timeouts, retries, escalations
    — plus lease expiries, duplicate deliveries and worker counts on the
    TCP transport."""

    transport: str = "local"
    """Which :class:`~repro.engine.transport.ShardTransport` ran the
    shards (``"local"`` on sequential/fallback paths too)."""

    wall_time_s: float = 0.0
    """End-to-end wall-clock of the engine run (partition + workers +
    reconcile) — the **only** number scaling benchmarks may compare;
    ``result.runtime_s`` sums per-shard CPU time and exceeds this on
    any parallel run."""

    @property
    def stuck(self) -> StuckCellReport:
        """Quarantined cells (empty unless ``config.quarantine``)."""
        return self.result.stuck


class ShardedLegalizer:
    """Sharded parallel Algorithm 1 bound to one design.

    Attach-style collaborators (all optional, set after construction):

    ``telemetry``
        :class:`MllTelemetry` receiving merged per-call records from
        every worker and from the seam pass.
    ``checkpoint``
        :class:`~repro.engine.checkpoint.CheckpointManager`; completed
        shard deltas are persisted as they land, and a manager opened
        with ``resume=True`` skips its checkpointed shards entirely.
    ``fault``
        :class:`~repro.testing.faults.ShardFaultSpec` chaos hook,
        attached to the matching shard's task (tests / chaos drills).
    ``transport``
        a pre-built :class:`~repro.engine.transport.ShardTransport`
        (e.g. a :class:`~repro.engine.remote.TcpTransport` whose port
        the caller advertised to workers); ``None`` builds one from
        ``engine.transport``.
    """

    def __init__(
        self,
        design: Design,
        config: LegalizerConfig | None = None,
        engine: EngineConfig | None = None,
    ) -> None:
        self.design = design
        self.config = config if config is not None else LegalizerConfig()
        self.engine = engine if engine is not None else EngineConfig()
        self.telemetry: MllTelemetry | None = None
        self.checkpoint: CheckpointManager | None = None
        self.fault: ShardFaultSpec | None = None
        self.transport: ShardTransport | None = None

    # ------------------------------------------------------------------
    def run(self) -> EngineResult:
        """Legalize all unplaced movable cells of the design."""
        t0 = time.perf_counter()
        todo = [c for c in self.design.movable_cells() if not c.is_placed]
        if len(todo) < self.engine.serial_threshold:
            return self._run_sequential(t0)
        partition = partition_design(self.design, self.config, self.engine)
        if len(partition.shards) <= 1:
            return self._run_sequential(t0)
        return self._run_sharded(partition, t0)

    # ------------------------------------------------------------------
    def _run_sequential(
        self, t0: float, degraded: bool = False,
        supervision: SupervisionReport | None = None,
    ) -> EngineResult:
        """The serial in-process fallback: plain Algorithm 1.

        Reached either below the serial threshold or as the last rung
        of the supervisor's degradation ladder (*degraded*)."""
        legalizer = Legalizer(self.design, self.config)
        if self.telemetry is not None:
            legalizer.mll.telemetry = self.telemetry
        result = legalizer.run()
        return EngineResult(
            result=result,
            workers=1,
            num_shards=1,
            parallel=False,
            degraded=degraded,
            supervision=supervision,
            wall_time_s=time.perf_counter() - t0,
        )

    def _run_sharded(self, partition: Partition, t0: float) -> EngineResult:
        design = self.design
        by_id = {c.id: c for c in design.cells}
        tasks = [
            self._make_task(shard, partition, by_id)
            for shard in partition.shards
            if shard.cell_ids
        ]
        workers = min(self.engine.resolved_workers(), max(1, len(tasks)))

        if self.checkpoint is not None:
            self.checkpoint.open(design, self.config, partition)

        transport = (
            self.transport
            if self.transport is not None
            else make_transport(self.engine)
        )
        shipped = transport.execute(
            tasks,
            workers=workers,
            on_outcome=(
                self.checkpoint.record
                if self.checkpoint is not None
                else None
            ),
            completed=(
                self.checkpoint.completed
                if self.checkpoint is not None
                else None
            ),
        )
        supervision: SupervisionReport | None = shipped.supervision
        if shipped.serial_fallback:
            # Last ladder rung: the sharded plan is unsalvageable (a
            # shard failed every transport rung *and* the in-process
            # re-run).  The master design is still untouched — shards
            # mutate copies — so the plain sequential driver takes
            # over cleanly.
            return self._run_sequential(
                t0, degraded=True, supervision=supervision
            )
        outcomes = shipped.outcomes
        outcomes.sort(key=lambda o: o.shard_id)

        if self.checkpoint is not None:
            self.checkpoint.flush()

        if self.telemetry is not None:
            for outcome in outcomes:
                self.telemetry.merge(
                    MllTelemetry(records=list(outcome.telemetry_records))
                )

        deferred = [by_id[cid] for cid in partition.deferred_cell_ids]
        report = reconcile(
            design,
            outcomes,
            config=self.config,
            deferred_cells=deferred,
            telemetry=self.telemetry,
        )

        total = LegalizationResult()
        for outcome in outcomes:
            total.merge(outcome.stats)
        # Deltas rejected at the seams were placed by their shard but
        # not on the master design; the seam pass re-placed (and
        # re-counted) them, so drop the shard-side counts first.
        total.placed -= report.conflicts
        total.failed_cells = []
        total.merge(report.seam_stats)

        return EngineResult(
            result=total,
            workers=workers,
            num_shards=len(partition.shards),
            halo_sites=partition.halo_sites,
            parallel=True,
            seam=report,
            shard_stats=[o.stats for o in outcomes],
            supervision=supervision,
            transport=transport.name,
            wall_time_s=time.perf_counter() - t0,
        )

    # ------------------------------------------------------------------
    def _make_task(
        self, shard: Shard, partition: Partition, by_id: dict[int, Cell]
    ) -> ShardTask:
        fp = self.design.floorplan
        specs = tuple(
            ShardCellSpec(
                cell_id=cid,
                name=by_id[cid].name,
                width=by_id[cid].width,
                height=by_id[cid].height,
                bottom_rail=by_id[cid].master.bottom_rail,
                gp_x=by_id[cid].gp_x,
                gp_y=by_id[cid].gp_y,
            )
            for cid in shard.cell_ids
        )
        frozen = tuple(
            c.rect
            for c in self.design.placed_cells()
            if c.x + c.width > shard.slice_x0 and c.x < shard.slice_x1
        )
        fault = self.fault
        if fault is not None and fault.shard_id != shard.id:
            fault = None
        return ShardTask(
            shard_id=shard.id,
            seed=shard_seed(self.config.seed, shard.id),
            config=self.config,
            num_rows=fp.num_rows,
            row_width=fp.row_width,
            site_width_um=fp.site_width_um,
            site_height_um=fp.site_height_um,
            first_rail=fp.rows[0].bottom_rail,
            slice_x0=shard.slice_x0,
            slice_x1=shard.slice_x1,
            blockages=tuple(fp.blockages),
            fences=tuple(fp.fences),
            frozen_rects=frozen,
            cells=specs,
            collect_telemetry=self.telemetry is not None,
            fault=fault,
        )


def legalize_sharded(
    design: Design,
    config: LegalizerConfig | None = None,
    engine: EngineConfig | None = None,
    telemetry: MllTelemetry | None = None,
    checkpoint: CheckpointManager | None = None,
    fault: ShardFaultSpec | None = None,
    transport: ShardTransport | None = None,
) -> EngineResult:
    """One-call convenience wrapper around :class:`ShardedLegalizer`."""
    sharded = ShardedLegalizer(design, config, engine)
    sharded.telemetry = telemetry
    sharded.checkpoint = checkpoint
    sharded.fault = fault
    sharded.transport = transport
    return sharded.run()
