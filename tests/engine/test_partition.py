"""Partitioner invariants (repro.engine.partition)."""

import pytest

from repro.bench import GeneratorConfig, generate_design
from repro.core import LegalizerConfig
from repro.engine import EngineConfig, derive_halo_sites, partition_design


@pytest.fixture(scope="module")
def design():
    return generate_design(
        GeneratorConfig(num_cells=800, target_density=0.5, seed=9)
    )


@pytest.fixture(scope="module")
def fenced_design():
    return generate_design(
        GeneratorConfig(num_cells=800, target_density=0.5, seed=9, fence_count=2)
    )


class TestOwnership:
    @pytest.mark.parametrize("shards", [1, 2, 4, 7])
    def test_every_movable_cell_in_exactly_one_shard(self, design, shards):
        part = partition_design(
            design, engine=EngineConfig(shards=shards)
        )
        owned: dict[int, int] = {}
        for shard in part.shards:
            for cid in shard.cell_ids:
                assert cid not in owned, "cell owned by two shards"
                owned[cid] = shard.id
        movable = {c.id for c in design.movable_cells() if not c.is_placed}
        assert set(owned) | set(part.deferred_cell_ids) == movable
        assert not set(owned) & set(part.deferred_cell_ids)

    def test_fenced_cells_are_deferred_not_sharded(self, fenced_design):
        part = partition_design(
            fenced_design, engine=EngineConfig(shards=4)
        )
        fenced = {
            c.id
            for c in fenced_design.movable_cells()
            if c.region is not None and not c.is_placed
        }
        assert fenced == set(part.deferred_cell_ids)
        for shard in part.shards:
            assert not fenced & set(shard.cell_ids)

    def test_owner_interior_contains_gp_center(self, design):
        part = partition_design(design, engine=EngineConfig(shards=4))
        by_id = {c.id: c for c in design.cells}
        width = design.floorplan.row_width
        for shard in part.shards:
            for cid in shard.cell_ids:
                c = by_id[cid]
                center = min(max(c.gp_x + c.width / 2, 0.0), width - 1e-9)
                assert shard.owns_x(center)


class TestGeometry:
    def test_interiors_tile_the_die(self, design):
        part = partition_design(design, engine=EngineConfig(shards=4))
        assert part.shards[0].interior_x0 == 0
        assert part.shards[-1].interior_x1 == design.floorplan.row_width
        for a, b in zip(part.shards, part.shards[1:]):
            assert a.interior_x1 == b.interior_x0
            assert b.id == a.id + 1

    @pytest.mark.parametrize("halo", [0, 7, 40])
    def test_halo_width_honored(self, design, halo):
        part = partition_design(
            design, engine=EngineConfig(shards=3, halo_sites=halo)
        )
        width = design.floorplan.row_width
        assert part.halo_sites == halo
        for shard in part.shards:
            assert shard.slice_x0 == max(0, shard.interior_x0 - halo)
            assert shard.slice_x1 == min(width, shard.interior_x1 + halo)

    def test_derived_halo_covers_window_and_retries(self, design):
        config = LegalizerConfig(rx=30, ry=5)
        engine = EngineConfig(shards=2)
        part = partition_design(design, config, engine)
        max_w = max(c.width for c in design.movable_cells())
        assert part.halo_sites == 2 * 30 + max_w + 30 * 3
        assert part.halo_sites == derive_halo_sites(config, max_w)


class TestDegenerateCases:
    def test_single_shard(self, design):
        part = partition_design(design, engine=EngineConfig(shards=1))
        assert len(part.shards) == 1
        only = part.shards[0]
        assert (only.interior_x0, only.interior_x1) == (
            0,
            design.floorplan.row_width,
        )
        movable = sum(
            1 for c in design.movable_cells() if not c.is_placed
        )
        assert len(only.cell_ids) + len(part.deferred_cell_ids) == movable

    def test_more_shards_than_die_width_is_capped(self, design):
        width = design.floorplan.row_width
        part = partition_design(
            design, engine=EngineConfig(shards=width * 3)
        )
        max_w = max(c.width for c in design.movable_cells())
        assert len(part.shards) <= max(1, width // max_w)
        for shard in part.shards:
            assert shard.interior_width >= 1
        # ownership invariant survives the cap
        owned = [cid for s in part.shards for cid in s.cell_ids]
        assert len(owned) == len(set(owned))

    def test_balanced_stripes_have_similar_populations(self, design):
        part = partition_design(design, engine=EngineConfig(shards=4))
        sizes = [len(s.cell_ids) for s in part.shards]
        assert max(sizes) <= 2 * max(1, min(sizes))

    def test_partition_is_deterministic(self, design):
        a = partition_design(design, engine=EngineConfig(shards=4))
        b = partition_design(design, engine=EngineConfig(shards=4))
        assert a == b
