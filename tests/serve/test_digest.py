"""Byte identity of the memoized placement digest.

``design_state_digest(design, memo)`` must return exactly the bytes of
the from-scratch ``design_state_digest(design)``: after every request of
a seeded ECO trace, on degenerate designs whose tuples render as ``()``
or ``(x,)``, and after a field is set to an equal value of another type.
"""

import random

import pytest

from repro.bench import GeneratorConfig, generate_design
from repro.core import LegalizerConfig
from repro.db import Design, Floorplan, Library
from repro.db.library import CellMaster
from repro.serve import DesignSession
from repro.serve.errors import EcoError
from repro.testing.faults import (
    DigestMemo,
    InjectedFault,
    design_state_digest,
)

TRACE_CELLS = 150
TRACE_SEED = 5

#: The trace's final digest, as computed without a memo before the memo
#: existed: the memo must not change what the digest says.
TRACE_FINAL_DIGEST = (
    "6c8da2c545d1bae16b00e86d7d4e36287373a5c3258be55093b3a2746d34a3d4"
)

#: One cycle of the trace; ``run_trace`` walks it four times.
SCHEDULE = (
    "move",
    "swap",
    "move_off_die",
    "resize_height",
    "buffer",
    "legalize_reset",
    "move",
    "buffer_unplaceable",
    "fault",
    "swap",
    "resize_height",
)


def _memo_matches(design: Design, memo: DigestMemo) -> str:
    reference = design_state_digest(design)
    assert design_state_digest(design, memo) == reference
    return reference


def _trace_request(
    session: DesignSession, rng: random.Random, step: str
) -> tuple[str, dict]:
    design = session.design
    fp = design.floorplan
    movable = [c for c in design.cells if not c.fixed and c.is_placed]
    cell = rng.choice(movable)
    if step == "move":
        x = float(rng.randrange(fp.row_width))
        y = float(rng.randrange(fp.num_rows))
        return "eco", {"kind": "move", "cell": cell.name, "x": x, "y": y}
    if step == "move_off_die":
        # Beyond MLL's window from every row and site: rolls back.
        return "eco", {
            "kind": "move",
            "cell": cell.name,
            "x": 1.2 * fp.row_width + rng.randrange(10),
            "y": 1.2 * fp.num_rows,
        }
    if step == "swap":
        other = rng.choice([c for c in movable if c is not cell])
        return "eco", {"kind": "swap", "cell": cell.name, "other": other.name}
    if step == "resize_height":
        return "eco", {
            "kind": "resize",
            "cell": cell.name,
            "width": cell.width,
            "height": 2 if cell.height == 1 else 1,
        }
    if step in ("buffer", "buffer_unplaceable"):
        nets = [n for n in design.netlist.nets if len(n.pins) >= 2]
        net = rng.choice(nets)
        width = fp.row_width + 1 if step == "buffer_unplaceable" else 1
        return "eco", {"kind": "buffer", "net": net.name, "width": width}
    if step == "fault":
        return "eco", {
            "kind": "move",
            "cell": cell.name,
            "x": float(rng.randrange(fp.row_width)),
            "y": float(rng.randrange(fp.num_rows)),
            "fault_at": 2,
        }
    assert step == "legalize_reset"
    return "legalize", {"reset": True}


def run_trace(check) -> DesignSession:
    """Legalize a session, then run the seeded trace; ``check(session,
    step, reply)`` runs after every request (``reply`` is ``None`` for a
    request that raised)."""
    design = generate_design(
        GeneratorConfig(
            num_cells=TRACE_CELLS, seed=TRACE_SEED, name="trace"
        )
    )
    session = DesignSession(
        "trace",
        design,
        LegalizerConfig(seed=TRACE_SEED),
        fault_budget=100,
        allow_fault_injection=True,
    )
    check(session, "setup", session.execute("legalize", {}))
    rng = random.Random(TRACE_SEED)
    for _ in range(4):
        for step in SCHEDULE:
            op, params = _trace_request(session, rng, step)
            try:
                reply = session.execute(op, params)
            except (InjectedFault, EcoError):
                reply = None
            check(session, step, reply)
    return session


class TestTrace:
    def test_memo_matches_reference_after_every_request(self):
        memo = DigestMemo()
        outcomes: dict[str, list[object]] = {}
        cell_counts: list[int] = []

        def check(session, step, reply):
            reference = _memo_matches(session.design, memo)
            if reply is not None:
                assert reply["digest"] == reference
            outcomes.setdefault(step, []).append(
                None if reply is None else reply["committed"]
            )
            assert session.execute("digest", {})["digest"] == reference
            cells = len(session.design.cells)
            if step == "buffer_unplaceable":
                # The buffer cell was added, then rolled back.
                assert cells == cell_counts[-1]
            cell_counts.append(cells)

        session = run_trace(check)
        assert not session.quarantined
        # The trace reaches every path it is meant to cover.
        assert False in outcomes["move_off_die"]
        assert True in outcomes["buffer"]
        assert outcomes["buffer_unplaceable"] == [False] * 4
        assert None in outcomes["fault"]
        assert True in outcomes["resize_height"]
        assert True in outcomes["legalize_reset"]
        assert cell_counts[-1] == cell_counts[0] + 4

    def test_final_digest_is_unchanged(self):
        session = run_trace(lambda *_: None)
        assert design_state_digest(session.design) == TRACE_FINAL_DIGEST
        assert session.digest() == TRACE_FINAL_DIGEST


def _edge_design(num_rows: int, row_width: int, cells: int) -> Design:
    """*cells* single-site cells on the left of row 0."""
    design = Design(
        Floorplan(num_rows=num_rows, row_width=row_width), Library()
    )
    master = design.library.get_or_create(1, 1, None)
    for x in range(cells):
        cell = design.add_cell(master, gp_x=float(x), gp_y=0.0)
        design.place(cell, x, 0)
    return design


class TestEdgeDesigns:
    @pytest.mark.parametrize(
        "num_rows, row_width, cells",
        [
            (3, 10, 0),  # no cells: ((), (...), 0)
            (3, 10, 1),  # one cell: ((...,), ...)
            (2, 10, 2),  # row 0 holds two cells, row 1 none
            (1, 10, 1),  # a single segment holding exactly one cell
            (1, 10, 3),  # a single segment
        ],
    )
    def test_memo_matches_reference(self, num_rows, row_width, cells):
        design = _edge_design(num_rows, row_width, cells)
        memo = DigestMemo()
        first = _memo_matches(design, memo)
        assert _memo_matches(design, memo) == first
        if cells:
            cell = design.cells[-1]
            design.unplace(cell)
            _memo_matches(design, memo)
            design.place(cell, row_width - 1, 0)
            _memo_matches(design, memo)
        master = design.library.get_or_create(2, 1, None)
        design.add_cell(master, gp_x=0.0, gp_y=0.0, name="late")
        _memo_matches(design, memo)
        design.cells.pop()
        _memo_matches(design, memo)


class TestEqualValueOfAnotherType:
    """Each edit keeps the value ``==`` to the old one but changes its
    ``repr``: a memo comparing with ``==`` would keep stale text."""

    @pytest.mark.parametrize(
        "field, before, after",
        [
            ("x", 2, 2.0),
            ("y", 0, 0.0),
            ("fixed", False, 0),
            ("id", 1, 1.0),  # also rendered in its segment's cell order
            ("region", 0, False),
        ],
    )
    def test_cell_field(self, field, before, after):
        design = _edge_design(2, 10, 3)
        cell = design.cells[1]
        setattr(cell, field, before)
        memo = DigestMemo()
        first = _memo_matches(design, memo)
        setattr(cell, field, after)
        assert _memo_matches(design, memo) != first

    def test_master_of_equal_footprint(self):
        design = _edge_design(2, 10, 3)
        memo = DigestMemo()
        first = _memo_matches(design, memo)
        design.cells[1].master = CellMaster(name="w", width=1.0, height=1)
        assert _memo_matches(design, memo) != first

    def test_segment_id_and_id_counter(self):
        design = _edge_design(2, 10, 2)
        memo = DigestMemo()
        first = _memo_matches(design, memo)
        segment = design.floorplan.segments[0]
        segment.id = float(segment.id)
        second = _memo_matches(design, memo)
        assert second != first
        design._next_cell_id = float(design._next_cell_id)
        assert _memo_matches(design, memo) != second
