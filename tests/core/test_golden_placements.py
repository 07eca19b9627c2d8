"""Golden placements: each case's ``design_state_digest`` is pinned.

The digests were recorded from the MLL implementation as it stood
before the stages were merged into one kernel, so any change to a
tie-break, to the scanline's emission order or to the float
summation of a cost shows up here as a changed digest.  The cases
cover both evaluation modes, the serial driver and the sharded engine
with two workers, triple-row cells with double-row cells held to odd
rows, and fence regions.

A digest may only be re-recorded when a placement change is intended
and explained in the change log.
"""

from __future__ import annotations

import pytest

from repro.bench.generator import GeneratorConfig, generate_design
from repro.core import EvaluationMode, Legalizer, LegalizerConfig
from repro.engine import legalize_sharded
from repro.engine.config import EngineConfig
from repro.testing.faults import design_state_digest

APPROX = EvaluationMode.APPROX
EXACT = EvaluationMode.EXACT

#: name -> (generator, legalizer, workers)
CASES: dict[str, tuple[GeneratorConfig, LegalizerConfig, int]] = {
    "dense_approx": (
        GeneratorConfig(
            num_cells=300, target_density=0.85, double_row_fraction=0.10,
            triple_row_fraction=0.05, seed=11, name="dense_approx",
        ),
        LegalizerConfig(seed=3, evaluation=APPROX, quarantine=True),
        1,
    ),
    "dense_exact": (
        GeneratorConfig(
            num_cells=200, target_density=0.8, double_row_fraction=0.10,
            triple_row_fraction=0.05, seed=12, name="dense_exact",
        ),
        LegalizerConfig(seed=4, evaluation=EXACT, quarantine=True),
        1,
    ),
    "sharded_approx_w2": (
        GeneratorConfig(
            num_cells=500, target_density=0.7, double_row_fraction=0.10,
            seed=13, name="sharded_approx_w2",
        ),
        LegalizerConfig(seed=5, evaluation=APPROX, quarantine=True),
        2,
    ),
    "sharded_exact_w2": (
        GeneratorConfig(
            num_cells=400, target_density=0.7, double_row_fraction=0.10,
            triple_row_fraction=0.05, seed=14, name="sharded_exact_w2",
        ),
        LegalizerConfig(seed=6, evaluation=EXACT, quarantine=True),
        2,
    ),
    "triple_rows_odd_parity": (
        GeneratorConfig(
            num_cells=250, target_density=0.8, double_row_fraction=0.10,
            triple_row_fraction=0.15, seed=15, name="triple_rows_odd_parity",
        ),
        LegalizerConfig(
            seed=7, evaluation=APPROX, double_row_parity=1, quarantine=True
        ),
        1,
    ),
    "fenced": (
        GeneratorConfig(
            num_cells=300, target_density=0.7, double_row_fraction=0.10,
            fence_count=2, fence_area_fraction=0.2, seed=16, name="fenced",
        ),
        LegalizerConfig(seed=8, evaluation=EXACT, quarantine=True),
        1,
    ),
}

#: name -> (placed, stuck cell ids, design_state_digest)
GOLDEN: dict[str, tuple[int, tuple[int, ...], str]] = {
    "dense_approx": (
        300, (),
        "0906c744ac35c3c66a6400f71af42081f74a47a435a3abdbebf7078256a6dd93",
    ),
    "dense_exact": (
        200, (),
        "cea6afffe8fbdf9bc428164908bc76db824af9d548e3d86c0f4a83ad17040690",
    ),
    "fenced": (
        300, (),
        "fb193d700a73cbb1d6ce9199cfbc1cfba82540b246c3eec1e4819cebd2ca4564",
    ),
    "sharded_approx_w2": (
        500, (),
        "59ed92699ccd98f417610fb790f606067004c8941d69247a1192d60581a19b9e",
    ),
    "sharded_exact_w2": (
        400, (),
        "ecfabadfacd9e1e95577862566fe6e0512f57022cf1f3c720ec564c6cc436622",
    ),
    # Odd-row parity strands some double-row cells: the quarantined set
    # is pinned too, in the order the driver gave up on them.
    "triple_rows_odd_parity": (
        233,
        (48, 54, 36, 38, 44, 34, 41, 53, 15, 19, 58, 30, 62, 25, 5, 27, 0),
        "2a276a8b8ec0babfb03468222f709954281178926be0933720c4f0ab17f8aaa2",
    ),
}


def legalize_case(name: str) -> tuple[int, tuple[int, ...], str]:
    """Generate and legalize one case; return what :data:`GOLDEN` pins."""
    gen, config, workers = CASES[name]
    design = generate_design(gen)
    if workers == 1:
        result = Legalizer(design, config).run()
    else:
        result = legalize_sharded(
            design,
            config,
            engine=EngineConfig(workers=workers, shards=workers, serial_threshold=0),
        ).result
    stuck = tuple(s.cell_id for s in result.stuck.cells)
    return result.placed, stuck, design_state_digest(design)


@pytest.mark.parametrize("name", sorted(CASES))
def test_placement_matches_golden_digest(name):
    assert legalize_case(name) == GOLDEN[name]
