"""Halo partitioner: tile the floorplan into vertical-stripe shards.

Each shard owns a half-open interior ``[interior_x0, interior_x1)`` —
the interiors tile ``[0, row_width)`` exactly — plus a *slice*
``[slice_x0, slice_x1)`` that extends the interior by the halo on both
sides (clamped to the die).  A movable cell is owned by the shard whose
interior contains its GP center; a shard may *place* cells anywhere in
its slice, so two adjacent shards can only ever collide inside the
seam band where their slices overlap.  The seam reconciler
(:mod:`repro.engine.reconcile`) resolves those collisions.

Cells assigned to fence regions are never sharded: a fence's rectangles
may lie outside the shard that owns the cell's GP position, which would
make the cell locally unplaceable.  Fenced cells are returned separately
and legalized by the sequential seam pass on the full design, where all
fence segments are visible.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from repro.core.config import LegalizerConfig
from repro.db.cell import Cell
from repro.db.design import Design
from repro.engine.config import EngineConfig, derive_halo_sites


@dataclass(frozen=True, slots=True)
class Shard:
    """One vertical stripe of the floorplan and the cells it owns."""

    id: int
    interior_x0: int
    interior_x1: int
    slice_x0: int
    slice_x1: int
    cell_ids: tuple[int, ...]
    """Ids of owned movable cells, in master-design input order."""

    @property
    def interior_width(self) -> int:
        """Width of the owned stripe in sites."""
        return self.interior_x1 - self.interior_x0

    def owns_x(self, x: float) -> bool:
        """True when *x* falls in this shard's interior."""
        return self.interior_x0 <= x < self.interior_x1


@dataclass(frozen=True, slots=True)
class Partition:
    """The partitioner's full output."""

    shards: tuple[Shard, ...]
    halo_sites: int
    deferred_cell_ids: tuple[int, ...]
    """Movable cells excluded from sharding (fence-region cells); they
    are legalized by the sequential seam pass."""


def _cell_center_x(cell: Cell, row_width: int) -> float:
    """GP center abscissa, clamped into the die."""
    center = cell.gp_x + cell.width / 2.0
    return min(max(center, 0.0), row_width - 1e-9)


def _stripe_boundaries(
    centers: list[float], num_shards: int, row_width: int
) -> list[int]:
    """Interior boundaries ``[0, b1, ..., row_width]``, strictly increasing.

    Interior edges sit at cell-count quantiles of the GP x distribution
    so every shard owns a similar number of cells; with no owned cells
    (every movable cell fenced) stripes are equal width.  Degenerate
    quantiles (clustered designs) collapse duplicate boundaries,
    lowering the effective shard count rather than emitting empty
    zero-width stripes.
    """
    bounds = [0]
    if centers:
        xs = sorted(centers)
        for i in range(1, num_shards):
            q = xs[min(len(xs) - 1, (i * len(xs)) // num_shards)]
            b = int(round(q))
            if bounds[-1] < b < row_width:
                bounds.append(b)
    else:
        for i in range(1, num_shards):
            b = (i * row_width) // num_shards
            if bounds[-1] < b < row_width:
                bounds.append(b)
    bounds.append(row_width)
    return bounds


def partition_design(
    design: Design,
    config: LegalizerConfig | None = None,
    engine: EngineConfig | None = None,
) -> Partition:
    """Partition *design*'s unplaced movable cells into halo shards.

    Invariants (unit-tested in ``tests/engine/test_partition.py``):

    * shard interiors tile ``[0, row_width)`` exactly, in shard-id order;
    * every unplaced, movable, unfenced cell is owned by exactly one
      shard (fenced cells land in ``deferred_cell_ids`` instead);
    * every slice equals its interior extended by ``halo_sites`` on each
      side, clamped to the die.
    """
    config = config if config is not None else LegalizerConfig()
    engine = engine if engine is not None else EngineConfig()
    row_width = design.floorplan.row_width

    todo = [c for c in design.movable_cells() if not c.is_placed]
    owned = [c for c in todo if c.region is None]
    deferred = tuple(c.id for c in todo if c.region is not None)

    max_w = max((c.width for c in todo), default=1)
    halo = (
        engine.halo_sites
        if engine.halo_sites is not None
        else derive_halo_sites(config, max_w)
    )

    requested = engine.shards if engine.shards is not None else engine.resolved_workers()
    # A stripe narrower than the widest cell cannot host it; cap the
    # shard count so interiors stay at least one max-width cell wide
    # (this also absorbs the shards >> row_width degenerate case).
    num_shards = max(1, min(requested, row_width // max(1, max_w)))

    centers = [_cell_center_x(c, row_width) for c in owned]
    bounds = _stripe_boundaries(centers, num_shards, row_width)

    # bounds = [0, b1, ..., row_width]; interior i = [bounds[i], bounds[i+1]).
    interior_starts = bounds[:-1]
    members: list[list[int]] = [[] for _ in interior_starts]
    for cell, center in zip(owned, centers):
        i = bisect_right(bounds, center) - 1
        i = min(i, len(members) - 1)
        members[i].append(cell.id)

    shards = tuple(
        Shard(
            id=i,
            interior_x0=bounds[i],
            interior_x1=bounds[i + 1],
            slice_x0=max(0, bounds[i] - halo),
            slice_x1=min(row_width, bounds[i + 1] + halo),
            cell_ids=tuple(members[i]),
        )
        for i in range(len(interior_starts))
    )
    return Partition(shards=shards, halo_sites=halo, deferred_cell_ids=deferred)
