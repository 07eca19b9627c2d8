"""One resident design per tenant: the ``DesignSession``.

A session owns a :class:`~repro.db.design.Design` held in memory for
its tenant, plus the :class:`~repro.core.config.LegalizerConfig` fixed
at session creation.  Everything here is synchronous and thread-safe
**by contract, not by locks**: the job queue (:mod:`repro.serve.jobs`)
guarantees at most one request executes per session at a time
(per-design FIFO), so the session never needs internal locking and its
behavior is a pure function of the request order — which is what makes
the serialized-replay equivalence testable byte-for-byte.

Isolation contract (the PR-2 journal doing its job):

* every mutation request (``legalize``, ``eco``) runs inside a
  :class:`~repro.db.journal.Transaction`;
* a request that fails — infeasible ECO, legalization error, injected
  fault — rolls back to the exact pre-request placement state, verified
  against a :func:`~repro.testing.faults.design_state_digest` taken on
  entry;
* ``seq`` counts executed mutation requests; replaying the same
  requests in ``seq`` order on a fresh copy of the design reproduces
  the same digests.

Fault domain: unexpected exceptions are charged to a per-session fault
budget.  A rollback that leaves the digest changed (journal-coverage
hole) or a budget overrun quarantines *this* session only — the server
and every other tenant keep running.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

from repro.checker import displacement_stats, verify_placement
from repro.core.config import LegalizerConfig
from repro.core.legalizer import LegalizationError, Legalizer
from repro.db.cell import Cell
from repro.db.design import Design
from repro.db.journal import Transaction
from repro.db.netlist import Net
from repro.serve.errors import EcoError, SessionQuarantinedError
from repro.serve.protocol import (
    ProtocolError,
    param_bool,
    param_float,
    param_int,
    param_opt_int,
    param_str,
)
from repro.testing.faults import (
    DigestMemo,
    FaultInjector,
    design_state_digest,
)

#: Signature of the progress sink handed to long-running requests.
ProgressFn = Callable[[dict[str, object]], None]

#: ECO kinds a session understands, in protocol order.
ECO_KINDS: tuple[str, ...] = (
    "move",
    "resize",
    "swap",
    "buffer",
    "improve",
    "swap_pass",
)


@dataclass(slots=True)
class SessionInfo:
    """Summary row for the ``sessions`` listing."""

    name: str
    cells: int
    placed: int
    seq: int
    quarantined: bool
    faults: int

    def to_wire(self) -> dict[str, object]:
        return {
            "name": self.name,
            "cells": self.cells,
            "placed": self.placed,
            "seq": self.seq,
            "quarantined": self.quarantined,
            "faults": self.faults,
        }


class DesignSession:
    """A resident design plus its per-tenant request state."""

    def __init__(
        self,
        name: str,
        design: Design,
        config: LegalizerConfig,
        fault_budget: int = 3,
        snapshot_dir: str | None = None,
        allow_fault_injection: bool = False,
    ) -> None:
        self.name = name
        self.design = design
        self.config = config
        self.fault_budget = fault_budget
        self.snapshot_dir = snapshot_dir
        self.allow_fault_injection = allow_fault_injection
        #: Executed mutation requests (committed or rolled back).
        self.seq = 0
        #: Consecutive unexpected faults; reset by any clean request.
        self.consecutive_faults = 0
        self.quarantined = False
        self.quarantine_reason: str | None = None
        self._cell_index: dict[str, Cell] = {}
        self._cell_index_len = -1
        self._memo = DigestMemo()

    # ------------------------------------------------------------------
    # Construction helpers (run in a worker thread by the manager)
    # ------------------------------------------------------------------
    @classmethod
    def load(
        cls,
        name: str,
        aux_path: str,
        config: LegalizerConfig,
        fault_budget: int = 3,
        snapshot_dir: str | None = None,
        allow_fault_injection: bool = False,
    ) -> "DesignSession":
        """Load a Bookshelf bundle into a fresh session."""
        from repro.io import read_bookshelf

        design = read_bookshelf(aux_path)
        return cls(
            name,
            design,
            config,
            fault_budget=fault_budget,
            snapshot_dir=snapshot_dir,
            allow_fault_injection=allow_fault_injection,
        )

    @classmethod
    def generate(
        cls,
        name: str,
        params: dict[str, object],
        config: LegalizerConfig,
        fault_budget: int = 3,
        snapshot_dir: str | None = None,
        allow_fault_injection: bool = False,
    ) -> "DesignSession":
        """Synthesize a design via :mod:`repro.bench.generator`."""
        from repro.bench import GeneratorConfig, generate_design

        gen = GeneratorConfig(
            num_cells=param_int(
                params, "cells", 400, minimum=1, maximum=200_000
            ),
            target_density=param_float(
                params, "density", 0.45, minimum=0.01, maximum=0.95
            ),
            double_row_fraction=param_float(
                params, "double_fraction", 0.1, minimum=0.0, maximum=1.0
            ),
            seed=param_int(
                params, "seed", config.seed, minimum=0, maximum=2**32 - 1
            ),
            name=name,
        )
        design = generate_design(gen)
        return cls(
            name,
            design,
            config,
            fault_budget=fault_budget,
            snapshot_dir=snapshot_dir,
            allow_fault_injection=allow_fault_injection,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def info(self) -> SessionInfo:
        placed = sum(1 for c in self.design.cells if c.is_placed)
        return SessionInfo(
            name=self.name,
            cells=len(self.design.cells),
            placed=placed,
            seq=self.seq,
            quarantined=self.quarantined,
            faults=self.consecutive_faults,
        )

    def digest(self) -> str:
        """SHA-256 over the complete placement state (``design_state``).

        Rendered through the session's memo, so a request pays for the
        cells and segments it changed, not for the whole design.
        """
        return design_state_digest(self.design, self._memo)

    def stats(self) -> dict[str, object]:
        design = self.design
        fp = design.floorplan
        placed = sum(1 for c in design.cells if c.is_placed)
        result: dict[str, object] = {
            "cells": len(design.cells),
            "placed": placed,
            "nets": len(design.netlist),
            "density": round(design.density(), 4),
            "die_um": [
                round(fp.row_width * fp.site_width_um, 3),
                round(fp.num_rows * fp.site_height_um, 3),
            ],
            "seq": self.seq,
            "digest": self.digest(),
        }
        if placed:
            disp = displacement_stats(design)
            result["avg_disp_sites"] = round(disp.avg_sites, 4)
            result["hpwl_um"] = round(design.hpwl_um(), 2)
        return result

    # ------------------------------------------------------------------
    # Request execution (at most one at a time, by queue contract)
    # ------------------------------------------------------------------
    def execute(
        self,
        op: str,
        params: dict[str, object],
        progress: ProgressFn | None = None,
    ) -> dict[str, object]:
        """Run one request against the resident design.

        Mutation requests are guarded: the pre-request digest is taken,
        and any unexpected exception is charged to the fault budget
        *after* verifying the rollback restored that digest exactly.
        Validation failures (:class:`EcoError` / ``ProtocolError``)
        happen before any mutation and are never charged.
        """
        if self.quarantined and op not in ("digest", "stats", "snapshot"):
            raise SessionQuarantinedError(
                f"session {self.name!r} is quarantined "
                f"({self.quarantine_reason}); snapshot and close are "
                f"still available"
            )
        if op == "digest":
            return {"digest": self.digest(), "seq": self.seq}
        if op == "stats":
            return self.stats()
        if op == "snapshot":
            return self._do_snapshot(params)
        if op not in ("legalize", "eco"):
            raise ProtocolError(f"op {op!r} is not a session operation")

        before = self.digest()
        try:
            if op == "legalize":
                result = self._do_legalize(params, progress)
            else:
                result = self._do_eco(params, progress)
        except (EcoError, ProtocolError):
            raise
        except Exception as exc:
            self._charge_fault(before, exc)
            raise
        self.consecutive_faults = 0
        self.seq += 1
        result["seq"] = self.seq
        result["digest"] = self.digest()
        return result

    def _charge_fault(self, before: str, exc: Exception) -> None:
        """Account one unexpected fault; quarantine on budget overrun.

        A digest mismatch after rollback means the journal failed to
        restore the design — that is corruption, not a transient fault,
        and the session is quarantined immediately so no further
        request builds on a broken placement.  The check renders the
        design from scratch, so it does not rest on the memo.
        """
        after = design_state_digest(self.design)
        if after != before:
            self.quarantined = True
            self.quarantine_reason = (
                f"rollback failed to restore state after "
                f"{type(exc).__name__} (digest {before[:12]} -> "
                f"{after[:12]})"
            )
            return
        self.consecutive_faults += 1
        if self.consecutive_faults >= self.fault_budget:
            self.quarantined = True
            self.quarantine_reason = (
                f"fault budget exhausted ({self.consecutive_faults} "
                f"consecutive faults; last: {type(exc).__name__})"
            )

    # ------------------------------------------------------------------
    # legalize
    # ------------------------------------------------------------------
    def _do_legalize(
        self, params: dict[str, object], progress: ProgressFn | None
    ) -> dict[str, object]:
        design = self.design
        reset = param_bool(params, "reset", False)
        workers = param_int(params, "workers", 1, minimum=1, maximum=64)
        shards = param_opt_int(params, "shards", minimum=1, maximum=256)
        quarantine = param_bool(params, "quarantine", False)
        config = self.config
        if quarantine != config.quarantine:
            from dataclasses import replace

            config = replace(config, quarantine=quarantine)
        with Transaction(design):
            if reset:
                # Journaled equivalent of Design.reset_placement():
                # the reset must sit inside the transaction so a
                # failed reset+legalize rolls back to the exact
                # pre-request placement, not to a fully unplaced
                # design.
                for cell in list(design.placed_cells()):
                    design.unplace(cell)
            todo = sum(
                1 for c in design.movable_cells() if not c.is_placed
            )
            if progress is not None:
                progress({"stage": "started", "todo": todo})
            if workers > 1 or (shards is not None and shards > 1):
                result = self._legalize_sharded(
                    config, workers, shards, progress
                )
            else:
                try:
                    run = Legalizer(design, config).run()
                except LegalizationError as exc:
                    raise self._legalization_failure(exc) from exc
                result = {
                    "placed": run.placed,
                    "rounds": run.rounds,
                    "mll_calls": run.mll_calls,
                    "stuck": len(run.stuck.cells),
                    "parallel": False,
                }
        violations = verify_placement(
            design,
            power_aligned=config.power_aligned,
            require_all_placed=False,
        )
        disp = displacement_stats(design)
        result["violations"] = len(violations)
        result["avg_disp_sites"] = round(disp.avg_sites, 4)
        result["committed"] = True
        if progress is not None:
            progress(
                {"stage": "audited", "violations": len(violations)}
            )
        return result

    def _legalize_sharded(
        self,
        config: LegalizerConfig,
        workers: int,
        shards: int | None,
        progress: ProgressFn | None,
    ) -> dict[str, object]:
        from repro.engine.checkpoint import CheckpointManager, CheckpointState
        from repro.engine.config import EngineConfig
        from repro.engine.executor import legalize_sharded

        manager: CheckpointManager | None = None
        ckpt_path: str | None = None
        if self.snapshot_dir is not None:
            os.makedirs(self.snapshot_dir, exist_ok=True)
            ckpt_path = os.path.join(
                self.snapshot_dir, f"{self.name}.ckpt"
            )

            def watermark(state: CheckpointState) -> None:
                # PR-3 checkpoint watermark -> streamed progress event.
                if progress is not None:
                    progress(
                        {
                            "stage": "shards",
                            "done": len(state.completed),
                            "total": state.num_shards,
                            "telemetry_watermark": (
                                state.telemetry_watermark
                            ),
                        }
                    )

            manager = CheckpointManager(ckpt_path, on_record=watermark)
        try:
            engine_result = legalize_sharded(
                self.design,
                config,
                EngineConfig(
                    workers=workers, shards=shards, serial_threshold=0
                ),
                checkpoint=manager,
            )
        except LegalizationError as exc:
            raise self._legalization_failure(exc) from exc
        finally:
            if ckpt_path is not None and os.path.exists(ckpt_path):
                # The shard phase is over; the per-request checkpoint
                # has served its watermark/restart purpose.
                os.unlink(ckpt_path)
        run = engine_result.result
        return {
            "placed": run.placed,
            "rounds": run.rounds,
            "mll_calls": run.mll_calls,
            "stuck": len(run.stuck.cells),
            "parallel": engine_result.parallel,
            "num_shards": engine_result.num_shards,
            "workers": engine_result.workers,
        }

    @staticmethod
    def _legalization_failure(exc: LegalizationError) -> EcoError:
        partial = exc.result
        detail = ""
        if partial is not None:
            detail = (
                f" ({partial.placed} placed, "
                f"{len(partial.failed_cells)} stuck)"
            )
        return EcoError(f"legalization failed{detail}: {exc}")

    # ------------------------------------------------------------------
    # ECO primitives
    # ------------------------------------------------------------------
    def _do_eco(
        self, params: dict[str, object], progress: ProgressFn | None
    ) -> dict[str, object]:
        kind = param_str(params, "kind")
        if kind not in ECO_KINDS:
            raise EcoError(
                f"unknown eco kind {kind!r} (known: {', '.join(ECO_KINDS)})"
            )
        fault_at = param_opt_int(params, "fault_at")
        if fault_at is not None and not self.allow_fault_injection:
            raise EcoError(
                "fault injection is disabled on this server "
                "(start with --allow-fault-injection)"
            )
        if fault_at is not None:
            with FaultInjector(self.design, trip_at=fault_at):
                return self._run_eco(kind, params)
        return self._run_eco(kind, params)

    def _run_eco(
        self, kind: str, params: dict[str, object]
    ) -> dict[str, object]:
        from repro.apps import (
            improve_hpwl,
            insert_buffer,
            move_cell,
            resize_cell,
            swap_cells,
            swap_pass,
        )

        design = self.design
        result: dict[str, object] = {"kind": kind}
        with Transaction(design):
            try:
                if kind == "move":
                    cell = self._cell(param_str(params, "cell"))
                    committed = move_cell(
                        design,
                        cell,
                        param_float(params, "x"),
                        param_float(params, "y"),
                        self.config,
                    )
                elif kind == "resize":
                    cell = self._cell(param_str(params, "cell"))
                    width = param_int(params, "width")
                    height = param_int(params, "height", cell.height)
                    if width < 1 or height < 1:
                        raise EcoError("resize needs positive dimensions")
                    rail = (
                        cell.master.bottom_rail
                        if height % 2 == 0
                        else None
                    )
                    master = design.library.get_or_create(
                        width, height, rail
                    )
                    committed = resize_cell(
                        design, cell, master, self.config
                    )
                elif kind == "swap":
                    cell = self._cell(param_str(params, "cell"))
                    other = self._cell(param_str(params, "other"))
                    if cell is other:
                        raise EcoError("swap needs two distinct cells")
                    committed = swap_cells(
                        design, cell, other, self.config
                    )
                elif kind == "buffer":
                    net = self._net(param_str(params, "net"))
                    master = design.library.get_or_create(
                        param_int(params, "width", 1),
                        param_int(params, "height", 1),
                        None,
                    )
                    buffered = insert_buffer(
                        design,
                        net,
                        master,
                        self.config,
                        split_at=param_int(params, "split_at", 1),
                    )
                    committed = buffered.success
                    if buffered.buffer is not None:
                        result["buffer"] = buffered.buffer.name
                elif kind == "improve":
                    stats = improve_hpwl(
                        design,
                        self.config,
                        passes=param_int(params, "passes", 1),
                        max_moves_per_pass=param_opt_int(
                            params, "max_moves"
                        ),
                    )
                    committed = True
                    result["moves_tried"] = stats.moves_tried
                    result["moves_kept"] = stats.moves_kept
                else:  # swap_pass
                    sstats = swap_pass(
                        design,
                        self.config,
                        max_pairs=param_opt_int(params, "max_pairs"),
                    )
                    committed = True
                    result["pairs_tried"] = sstats.pairs_tried
                    result["swaps_kept"] = sstats.swaps_kept
            except ValueError as exc:
                # The apps validate their preconditions (cell must be
                # placed, cells distinct, ...) with ValueError — a
                # client error, not a session fault.
                raise EcoError(str(exc)) from exc
        result["committed"] = committed
        result["rolled_back"] = not committed
        return result

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def _cell(self, name: str) -> Cell:
        if self._cell_index_len != len(self.design.cells):
            self._cell_index = {c.name: c for c in self.design.cells}
            self._cell_index_len = len(self.design.cells)
        cell = self._cell_index.get(name)
        if cell is None:
            raise EcoError(f"no cell named {name!r} in this design")
        return cell

    def _net(self, name: str) -> Net:
        for net in self.design.netlist.nets:
            if net.name == name:
                return net
        raise EcoError(f"no net named {name!r} in this design")

    # ------------------------------------------------------------------
    # Snapshot / flush
    # ------------------------------------------------------------------
    def _do_snapshot(self, params: dict[str, object]) -> dict[str, object]:
        directory = params.get("dir")
        if directory is not None and not isinstance(directory, str):
            raise ProtocolError("param 'dir' must be a string")
        path = self.snapshot(self._confine_snapshot_dir(directory))
        return {"path": path, "seq": self.seq, "digest": self.digest()}

    def _confine_snapshot_dir(self, directory: str | None) -> str | None:
        """Resolve a client-supplied ``dir`` inside ``snapshot_dir``.

        The wire op must not let a tenant write Bookshelf files to
        arbitrary paths with the server's privileges: ``params.dir`` is
        interpreted relative to the configured snapshot directory and
        rejected if it resolves outside it.
        """
        if directory is None:
            return None
        if self.snapshot_dir is None:
            raise EcoError(
                "snapshot targets require a server snapshot directory "
                "(start the server with --snapshot-dir); params.dir is "
                "confined to it"
            )
        base = os.path.realpath(self.snapshot_dir)
        resolved = os.path.realpath(os.path.join(base, directory))
        if resolved != base and not resolved.startswith(base + os.sep):
            raise EcoError(
                f"snapshot dir {directory!r} resolves outside the "
                f"configured snapshot directory"
            )
        return resolved

    def snapshot(self, directory: str | None = None) -> str:
        """Write the design as a Bookshelf bundle; returns the .aux path.

        This is the session "checkpoint": the durable artifact flushed
        for every resident session on graceful shutdown (SIGTERM).
        """
        from repro.io import write_bookshelf

        target = directory if directory is not None else self.snapshot_dir
        if target is None:
            raise EcoError(
                "no snapshot directory configured (start the server "
                "with --snapshot-dir)"
            )
        return write_bookshelf(self.design, target, self.name)
