"""Per-shard work unit: build a shard view, legalize it, emit deltas.

The executor never pickles a whole :class:`~repro.db.design.Design`
across the process boundary.  It sends a :class:`ShardTask` — floorplan
parameters, the shard slice, and flat per-cell specs — and receives a
:class:`ShardOutcome` — per-cell position deltas plus run statistics.
Both are plain dataclasses of value objects, so they serialize cheaply
and identically under fork and spawn start methods.

The shard *view* is a real :class:`~repro.db.design.Design` whose
floorplan equals the master floorplan with two extra blockages covering
everything outside the shard slice (plus one blockage per pre-placed
context cell).  Because segments simply do not exist outside the slice,
the unmodified sequential :class:`~repro.core.legalizer.Legalizer`
physically cannot place a cell beyond the slice — the halo bound is
enforced by construction, not by trusted cooperation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.config import LegalizerConfig
from repro.core.instrumentation import MllCallRecord, MllTelemetry
from repro.core.legalizer import (
    LegalizationError,
    LegalizationResult,
    Legalizer,
    StuckCellReport,
)
from repro.db.cell import Cell
from repro.db.design import Design
from repro.db.fence import FenceRegion
from repro.db.floorplan import Floorplan
from repro.db.library import Library, Rail
from repro.db.netlist import Netlist
from repro.geometry import Rect
from repro.testing.faults import ShardFaultSpec, worker_fault_from_env


@dataclass(frozen=True, slots=True)
class ShardCellSpec:
    """One movable cell, flattened for the process boundary."""

    cell_id: int
    name: str
    width: int
    height: int
    bottom_rail: Rail | None
    gp_x: float
    gp_y: float


@dataclass(frozen=True, slots=True)
class ShardTask:
    """Everything a worker needs to legalize one shard."""

    shard_id: int
    seed: int
    config: LegalizerConfig
    num_rows: int
    row_width: int
    site_width_um: float
    site_height_um: float
    first_rail: Rail
    slice_x0: int
    slice_x1: int
    blockages: tuple[Rect, ...]
    fences: tuple[FenceRegion, ...]
    frozen_rects: tuple[Rect, ...]
    """Footprints of cells already placed before the engine ran; the
    shard treats them as immovable obstacles."""
    cells: tuple[ShardCellSpec, ...]
    collect_telemetry: bool = False
    attempt: int = 1
    """1-based attempt number in the shard queue; a retried shard
    gets a fresh task with the *same* seed and a bumped attempt, so any
    successful attempt yields byte-identical deltas."""
    fault: "ShardFaultSpec | None" = None
    """Optional injected worker fault (:class:`repro.testing.faults.
    ShardFaultSpec`) — test/chaos hook, ``None`` in production."""


@dataclass(frozen=True, slots=True)
class ShardOutcome:
    """A worker's result: placement deltas only, never a whole design."""

    shard_id: int
    placements: tuple[tuple[int, int, int], ...]
    """``(master_cell_id, x, y)`` triples in shard processing order."""
    unplaced_cell_ids: tuple[int, ...]
    stats: LegalizationResult
    telemetry_records: tuple[MllCallRecord, ...] = ()
    error: str | None = None


def shard_seed(base_seed: int, shard_id: int) -> int:
    """Deterministic per-shard RNG seed.

    Decorrelates shards (a shared seed would correlate the retry
    perturbations of cells near opposite seam sides) while keeping every
    ``workers=N`` run bit-reproducible for fixed ``base_seed`` and fixed
    shard count.  A splitmix-style odd multiplier keeps distinct
    ``(seed, shard)`` pairs from colliding for any realistic shard count.
    """
    return (base_seed * 0x9E3779B1 + (shard_id + 1) * 0x85EBCA6B) % (2**31)


def build_shard_design(task: ShardTask) -> tuple[Design, list[Cell]]:
    """Materialize the shard view described by *task*.

    Returns the design and its cells in spec order (parallel lists).
    """
    outside: list[Rect] = []
    if task.slice_x0 > 0:
        outside.append(Rect(0, 0, task.slice_x0, task.num_rows))
    if task.slice_x1 < task.row_width:
        outside.append(
            Rect(task.slice_x1, 0, task.row_width - task.slice_x1, task.num_rows)
        )
    floorplan = Floorplan(
        num_rows=task.num_rows,
        row_width=task.row_width,
        site_width_um=task.site_width_um,
        site_height_um=task.site_height_um,
        first_rail=task.first_rail,
        blockages=[*task.blockages, *task.frozen_rects, *outside],
        fences=list(task.fences),
    )
    design = Design(
        floorplan, Library(), Netlist(), name=f"shard{task.shard_id}"
    )
    cells = []
    for spec in task.cells:
        master = design.library.get_or_create(
            spec.width, spec.height, spec.bottom_rail
        )
        cells.append(
            design.add_cell(master, gp_x=spec.gp_x, gp_y=spec.gp_y, name=spec.name)
        )
    return design, cells


def run_shard(
    task: ShardTask,
    in_worker: bool = False,
    fault: ShardFaultSpec | None = None,
) -> ShardOutcome:
    """Legalize one shard (module-level: picklable for worker pools).

    *in_worker* is true in a pool child or a ``repro worker``, never in
    the process that owns the design; *fault* is a ``repro worker``'s
    own chaos hook.  A shard that exhausts its retry budget does *not*
    raise: its unplaced cells are reported in ``unplaced_cell_ids`` and
    retried by the seam reconciler on the full design, where the
    neighbor context the shard lacked is visible.
    """
    # Chaos hook: an armed ShardFaultSpec (the task's, else the
    # worker's, else the REPRO_WORKER_FAULT environment variable's for
    # CLI/CI experiments) fires *before* any work, simulating a worker
    # that dies, wedges or throws.  A disarmed attempt (attempt >
    # spec.attempts) runs clean.
    fault = task.fault or fault or worker_fault_from_env()
    if fault is not None and fault.armed_for(task.shard_id, task.attempt):
        fault.trip(task.shard_id, task.attempt, in_worker)

    design, cells = build_shard_design(task)
    config = replace(task.config, seed=task.seed)
    legalizer = Legalizer(design, config)
    telemetry = MllTelemetry() if task.collect_telemetry else None
    if telemetry is not None:
        legalizer.mll.telemetry = telemetry

    error: str | None = None
    try:
        stats = legalizer.run(origin=f"shard{task.shard_id}")
    except LegalizationError as exc:
        # The exception carries the partial result of the failed run —
        # placed counts, MLL telemetry counters, rounds — so shard
        # statistics survive a retry-budget exhaustion.
        error = str(exc)
        if exc.result is not None:
            stats = exc.result
        else:  # pragma: no cover - defensive for foreign raisers
            stats = LegalizationResult(
                placed=sum(1 for c in cells if c.is_placed),
                rounds=config.max_rounds,
            )

    placements = tuple(
        (spec.cell_id, cell.x, cell.y)
        for spec, cell in zip(task.cells, cells)
        if cell.is_placed
    )
    unplaced = tuple(
        spec.cell_id
        for spec, cell in zip(task.cells, cells)
        if not cell.is_placed
    )
    stats.failed_cells = [
        spec.name
        for spec, cell in zip(task.cells, cells)
        if not cell.is_placed
    ]
    # Shards never quarantine: a cell the shard could not place gets a
    # second chance at the seam pass (full-design context), so any
    # shard-level stuck entries (config.quarantine on) are dropped here
    # — only the seam pass decides what is truly stuck.
    stats.stuck = StuckCellReport()
    return ShardOutcome(
        shard_id=task.shard_id,
        placements=placements,
        unplaced_cell_ids=unplaced,
        stats=stats,
        telemetry_records=tuple(telemetry.records) if telemetry else (),
        error=error,
    )
