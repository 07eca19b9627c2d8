"""End-to-end engine runs (repro.engine.executor)."""

import pytest

from repro.bench import GeneratorConfig, generate_design
from repro.checker import displacement_stats, verify_placement
from repro.core import Legalizer, LegalizerConfig, MllTelemetry
from repro.engine import EngineConfig, ShardedLegalizer, legalize_sharded

GEN = GeneratorConfig(num_cells=1200, target_density=0.5, seed=4)
CFG = LegalizerConfig(seed=1)


def fresh_design():
    return generate_design(GEN)


def coords(design):
    return [(c.name, c.x, c.y) for c in design.cells]


class TestEndToEnd:
    def test_workers2_passes_checker_and_matches_sequential(self):
        seq = fresh_design()
        seq_result = Legalizer(seq, CFG).run()
        seq_disp = displacement_stats(seq).avg_sites

        par = fresh_design()
        engine_result = legalize_sharded(
            par, CFG, EngineConfig(workers=2, shards=2, serial_threshold=0)
        )

        assert engine_result.parallel
        assert engine_result.workers == 2
        assert verify_placement(par) == []
        assert engine_result.result.placed == seq_result.placed
        assert engine_result.result.failed_cells == []
        par_disp = displacement_stats(par).avg_sites
        assert par_disp == pytest.approx(seq_disp, rel=0.05)

    def test_workers2_is_bit_reproducible(self):
        runs = []
        for _ in range(2):
            design = fresh_design()
            legalize_sharded(
                design, CFG, EngineConfig(workers=2, shards=2, serial_threshold=0)
            )
            runs.append(coords(design))
        assert runs[0] == runs[1]

    def test_worker_count_does_not_change_coordinates(self):
        """Only the shard count shapes the result; worker scheduling
        must not (workers=1 runs the same shards in-process)."""
        serial = fresh_design()
        legalize_sharded(
            serial, CFG, EngineConfig(workers=1, shards=3, serial_threshold=0)
        )
        parallel = fresh_design()
        legalize_sharded(
            parallel, CFG, EngineConfig(workers=2, shards=3, serial_threshold=0)
        )
        assert coords(serial) == coords(parallel)

    def test_fenced_design_end_to_end(self):
        design = generate_design(
            GeneratorConfig(
                num_cells=900, target_density=0.5, seed=6, fence_count=2
            )
        )
        engine_result = legalize_sharded(
            design, CFG, EngineConfig(workers=1, shards=3, serial_threshold=0)
        )
        assert engine_result.seam.deferred > 0
        assert verify_placement(design) == []


class TestFallbacks:
    def test_small_designs_fall_back_to_sequential(self):
        design = fresh_design()
        engine_result = legalize_sharded(
            design, CFG, EngineConfig(workers=4, serial_threshold=10_000)
        )
        assert not engine_result.parallel
        assert engine_result.num_shards == 1
        assert verify_placement(design) == []

    def test_fallback_matches_plain_sequential_exactly(self):
        ref = fresh_design()
        Legalizer(ref, CFG).run()
        via_engine = fresh_design()
        engine_result = legalize_sharded(
            via_engine, CFG, EngineConfig(workers=1, shards=1)
        )
        assert not engine_result.parallel
        assert coords(ref) == coords(via_engine)

    def test_single_shard_request_falls_back(self):
        design = fresh_design()
        engine_result = legalize_sharded(
            design, CFG, EngineConfig(workers=1, shards=1, serial_threshold=0)
        )
        assert not engine_result.parallel


class TestAccounting:
    def test_placed_count_is_exact_not_double_counted(self):
        design = fresh_design()
        engine_result = legalize_sharded(
            design, CFG, EngineConfig(workers=1, shards=4, serial_threshold=0)
        )
        movable = sum(1 for _ in design.movable_cells())
        actually_placed = sum(1 for c in design.movable_cells() if c.is_placed)
        assert engine_result.result.placed == actually_placed == movable
        assert engine_result.seam.applied + engine_result.seam.conflicts == sum(
            s.placed for s in engine_result.shard_stats
        )

    def test_merged_telemetry_matches_merged_result(self):
        design = fresh_design()
        telemetry = MllTelemetry()
        sharded = ShardedLegalizer(
            design, CFG, EngineConfig(workers=1, shards=3, serial_threshold=0)
        )
        sharded.telemetry = telemetry
        engine_result = sharded.run()
        summary = telemetry.summary()
        assert summary.calls == engine_result.result.mll_calls
        assert summary.successes == engine_result.result.mll_successes


class TestShardWorkerImports:
    def test_run_shard_loads_no_analysis_module(self):
        """A shard attempt imports only what legalizing needs: no
        ``repro.analysis`` module, even with the retired
        ``REPRO_SANITIZE`` switch still set in the environment."""
        import os
        import subprocess
        import sys
        import textwrap

        import repro

        script = textwrap.dedent("""
            import sys
            from repro.core import LegalizerConfig
            from repro.db.library import Rail
            from repro.engine import ShardCellSpec, ShardTask, run_shard

            task = ShardTask(
                shard_id=0, seed=1, config=LegalizerConfig(rx=4, ry=1),
                num_rows=2, row_width=20, site_width_um=1.0,
                site_height_um=1.0, first_rail=Rail.VDD, slice_x0=0,
                slice_x1=20, blockages=(), fences=(), frozen_rects=(),
                cells=(ShardCellSpec(0, "c0", 3, 1, None, 2.0, 0.0),),
            )
            assert len(run_shard(task).placements) == 1
            print(sorted(m for m in sys.modules if m.startswith("repro.analysis")))
        """)
        env = dict(os.environ, REPRO_SANITIZE="1")
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True, env=env,
        )
        assert proc.stdout.strip() == "[]"
