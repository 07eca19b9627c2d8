"""Command-line interface.

Subcommands::

    repro generate  --cells 2000 --density 0.5 --out DIR     # make a design
    repro legalize  DIR/design.aux --out DIR2 [--algorithm mll|optimal|
                    milp|abacus|tetris] [--relaxed] [--exact]
                    [--workers N] [--shards M] [--halo SITES]
                    [--shard-timeout S] [--shard-retries N] [--quarantine]
                    [--checkpoint PATH | --resume PATH]
    repro check     DIR/design.aux [--relaxed]                # verify only
    repro show      DIR/design.aux [--svg out.svg] [--window X Y W H]
    repro stats     DIR/design.aux                            # metrics
    repro lint      [paths...] [--format text|json|github]
                    [--select CODES] [--ignore CODES] [--list-rules]
                    [--interprocedural] [--no-cache]
                    [--cache-file PATH]                       # repro-lint
    repro callgraph [paths...] [--dot | --json] [--effects]   # program model
    repro serve     [--port N] [--max-sessions N] [--max-inflight N]
                    [--snapshot-dir DIR] [--relaxed]          # service
    repro worker    --connect HOST:PORT [--name ID]           # shard worker

Also available as ``python -m repro ...``.  ``lint`` and ``callgraph``
own their parsers (:mod:`repro.analysis.runner`,
:mod:`repro.analysis.callgraph`); the CLI forwards their argument tail
untouched.

Fault tolerance: ``--workers N`` runs execute under the shard
supervisor (crash containment, per-shard timeouts, retry with backoff
— see ``docs/parallel_engine.md``).  ``--checkpoint PATH`` makes the
run resumable after a kill (``--resume PATH``); SIGINT/SIGTERM flush a
final checkpoint and print a resume hint instead of a traceback.

Distributed runs: ``repro legalize --transport tcp --bind HOST:PORT``
turns the run into a coordinator serving its shard queue to ``repro
worker --connect HOST:PORT`` processes on other hosts (leases,
heartbeats, work stealing — see the "Distributed transport" section of
``docs/parallel_engine.md``).  On SIGTERM the coordinator drains:
in-flight leases get ``--drain-grace`` seconds to land in the
checkpoint before the resume hint prints.
"""

from __future__ import annotations

import argparse
import signal
import sys
import time

# Module level holds only what every command reads or builds; each
# command imports the rest, so `repro stats` loads neither numpy nor the
# engine.  benchmarks/e2e/layers.py wraps only functions of modules that
# `import repro.cli` loaded, and the engine only once `repro.engine` is
# loaded: these imports keep both true.
from repro.checker import displacement_stats, hpwl_stats, verify_placement
from repro.core.config import EvaluationMode, LegalizerConfig
from repro.engine.config import EngineConfig
from repro.io import read_bookshelf, read_lefdef, write_bookshelf, write_lefdef


def _load(path: str):
    """Read a design from a .aux (Bookshelf) or .def (LEF/DEF) path.

    A missing file or a reader error ends the command with one
    ``repro: error: ...`` line and exit status 2."""
    try:
        if path.endswith(".def"):
            lef = path[: -len(".def")] + ".lef"
            return read_lefdef(lef, path)
        return read_bookshelf(path)
    except (OSError, ValueError) as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def _save(design, out_dir: str, fmt: str, name: str | None = None) -> str:
    if fmt == "lefdef":
        _, def_path = write_lefdef(design, out_dir, name)
        return def_path
    return write_bookshelf(design, out_dir, name)


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.bench.generator import GeneratorConfig, generate_design

    design = generate_design(
        GeneratorConfig(
            num_cells=args.cells,
            target_density=args.density,
            double_row_fraction=args.double_fraction,
            triple_row_fraction=args.triple_fraction,
            blockage_fraction=args.blockages,
            fence_count=args.fences,
            seed=args.seed,
            name=args.name,
        )
    )
    path = _save(design, args.out, args.format, args.name)
    print(f"wrote {path}  ({len(design.cells)} cells, "
          f"density {design.density():.2f})")
    return 0


def _make_config(args: argparse.Namespace) -> LegalizerConfig:
    kwargs = {}
    if getattr(args, "audit", False):
        # Only force the flag when requested; otherwise keep the
        # REPRO_AUDIT environment default.
        kwargs["audit"] = True
    return LegalizerConfig(
        rx=args.rx,
        ry=args.ry,
        seed=args.seed,
        power_aligned=not args.relaxed,
        evaluation=EvaluationMode.EXACT if args.exact else EvaluationMode.APPROX,
        quarantine=getattr(args, "quarantine", False),
        **kwargs,
    )


class GracefulShutdown(Exception):
    """SIGINT/SIGTERM turned into a catchable exception.

    Raising from the handler unwinds through the engine (whose
    transactions roll back and whose supervisor reaps its workers in
    ``finally`` blocks), so the CLI can flush a final checkpoint and
    print a resume hint instead of dying with a bare traceback.
    """

    def __init__(self, signum: int) -> None:
        super().__init__(f"received {signal.Signals(signum).name}")
        self.signum = signum


def _install_signal_handlers():
    """Route SIGINT/SIGTERM through :class:`GracefulShutdown`.

    Returns the previous handlers so the caller can restore them in a
    ``finally`` (the CLI is also invoked in-process by tests)."""

    def handler(signum, frame):  # pragma: no cover - exercised via kill
        raise GracefulShutdown(signum)

    previous = {}
    for sig in (signal.SIGINT, signal.SIGTERM):
        previous[sig] = signal.signal(sig, handler)
    return previous


def _restore_signal_handlers(previous) -> None:
    for sig, old in previous.items():
        signal.signal(sig, old)


def _make_engine_config(args: argparse.Namespace):
    """Build the EngineConfig of a sharded run, or ``None`` when the run
    is sequential (``--workers 1`` without ``--shards``, or a baseline
    algorithm)."""
    if not (args.algorithm == "mll" and (args.workers != 1 or args.shards)):
        return None
    bind_host, bind_port = _parse_hostport(args.bind)
    return EngineConfig(
        workers=args.workers,
        shards=args.shards,
        halo_sites=args.halo,
        serial_threshold=args.serial_threshold,
        shard_timeout_s=args.shard_timeout,
        max_shard_retries=args.shard_retries,
        transport=args.transport,
        bind_host=bind_host,
        bind_port=bind_port,
        lease_ttl_s=args.lease_ttl,
        heartbeat_interval_s=args.heartbeat_interval,
        worker_wait_s=args.worker_wait,
        drain_grace_s=args.drain_grace,
    )


def _make_checkpoint_manager(args: argparse.Namespace):
    """Build the CheckpointManager implied by --checkpoint/--resume."""
    if not (args.checkpoint or args.resume):
        return None
    from repro.engine.checkpoint import CheckpointManager

    if args.resume:
        if args.checkpoint and args.checkpoint != args.resume:
            raise SystemExit(
                "--resume and --checkpoint must name the same file "
                "(a resumed run keeps checkpointing to the file it "
                "resumes from)"
            )
        return CheckpointManager(
            args.resume, every=args.checkpoint_every, resume=True
        )
    return CheckpointManager(args.checkpoint, every=args.checkpoint_every)


def _report_shutdown(exc: GracefulShutdown, manager) -> int:
    """Flush a last checkpoint and print the partial-result report."""
    name = signal.Signals(exc.signum).name
    if manager is not None and manager.state is not None:
        manager.flush()
        done = sorted(manager.completed)
        print(
            f"interrupted by {name}: {len(done)}/{manager.state.num_shards} "
            f"shards checkpointed to {manager.path}"
        )
        print(f"resume with: repro legalize ... --resume {manager.path}")
    elif manager is not None:
        print(
            f"interrupted by {name} before the shard phase started; "
            f"nothing to checkpoint"
        )
    else:
        print(
            f"interrupted by {name}: no checkpoint enabled "
            f"(rerun with --checkpoint PATH to make runs resumable)"
        )
    return 128 + exc.signum


def _parse_hostport(value: str, default_host: str = "127.0.0.1") -> tuple[str, int]:
    """Split ``HOST:PORT`` (or bare ``PORT``) into its parts."""
    host, sep, port = value.rpartition(":")
    if not sep:
        host, port = default_host, value
    try:
        return (host or default_host), int(port)
    except ValueError:
        raise SystemExit(f"expected HOST:PORT, got {value!r}") from None


def _cmd_legalize(args: argparse.Namespace) -> int:
    from repro.core.legalizer import LegalizationError, Legalizer

    # Option values are validated by the config constructors; build them
    # before reading the design so a bad value fails fast, as a usage
    # error.
    try:
        config = _make_config(args)
        engine_config = _make_engine_config(args)
        manager = _make_checkpoint_manager(args)
    except ValueError as exc:
        args.parser.error(str(exc))
    design = _load(args.aux)
    design.reset_placement()
    quarantined = None
    t0 = time.perf_counter()
    previous_handlers = _install_signal_handlers()
    try:
        if engine_config is not None:
            from repro.engine.executor import legalize_sharded

            transport = None
            if args.transport == "tcp":
                from repro.engine.remote import TcpTransport

                transport = TcpTransport(engine_config)
                print(
                    f"coordinator listening on "
                    f"{transport.host}:{transport.port} "
                    f"(workers connect with: repro worker --connect "
                    f"{transport.host}:{transport.port})"
                )
            engine_result = legalize_sharded(
                design,
                config,
                engine_config,
                checkpoint=manager,
                transport=transport,
            )
            quarantined = engine_result.stuck
            supervision = engine_result.supervision
            if supervision is not None and (
                supervision.faults or supervision.skipped_shards
            ):
                print(supervision.summary())
            if engine_result.parallel:
                seam = engine_result.seam
                print(
                    f"engine: transport={engine_result.transport} "
                    f"shards={engine_result.num_shards} "
                    f"workers={engine_result.workers} "
                    f"halo={engine_result.halo_sites} "
                    f"seam_cells={seam.seam_cells} "
                    f"(conflicts {seam.conflicts}, shard_failures "
                    f"{seam.shard_failures}, deferred {seam.deferred})"
                )
            elif engine_result.degraded:
                print(
                    "engine: DEGRADED to the sequential path (shards "
                    "failed every supervision rung)"
                )
            else:
                print("engine: sequential fallback (below serial threshold)")
        elif args.algorithm == "mll":
            quarantined = Legalizer(design, config).run().stuck
        # The baselines are imported on demand: repro.baselines pulls in
        # scipy, which every other subcommand would pay for at startup.
        elif args.algorithm == "optimal":
            from repro.baselines import OptimalLegalizer

            OptimalLegalizer(design, config).run()
        elif args.algorithm == "milp":
            from repro.baselines import MilpLegalizer

            MilpLegalizer(design, config).run()
        elif args.algorithm == "abacus":
            from repro.baselines import abacus_legalize

            abacus_legalize(design, power_aligned=not args.relaxed)
        else:
            from repro.baselines import tetris_legalize

            tetris_legalize(design, power_aligned=not args.relaxed)
    except GracefulShutdown as exc:
        # SIGINT/SIGTERM: flush a final checkpoint (when enabled) and
        # report the partial result instead of a bare traceback.
        return _report_shutdown(exc, manager)
    except LegalizationError as exc:
        # The exception carries the partial result of the failed run:
        # report what *was* achieved instead of dying with a traceback.
        partial = exc.result
        if partial is not None:
            names = ", ".join(partial.failed_cells[:5])
            more = (
                f" (+{len(partial.failed_cells) - 5} more)"
                if len(partial.failed_cells) > 5
                else ""
            )
            print(
                f"legalization FAILED after {partial.rounds} rounds: "
                f"{partial.placed} placed "
                f"({partial.direct_placements} direct, "
                f"{partial.mll_successes} mll), "
                f"{len(partial.failed_cells)} stuck: {names}{more}"
            )
        else:  # pragma: no cover - foreign raiser without a result
            print(f"legalization FAILED: {exc}")
    finally:
        _restore_signal_handlers(previous_handlers)
    runtime = time.perf_counter() - t0

    if args.quarantine and quarantined is not None:
        print(quarantined.summary())

    violations = verify_placement(
        design, power_aligned=not args.relaxed, require_all_placed=False
    )
    unplaced = sum(1 for c in design.movable_cells() if not c.is_placed)
    disp = displacement_stats(design)
    hp = hpwl_stats(design)
    print(
        f"{args.algorithm}: {runtime:.2f}s  disp {disp.avg_sites:.3f} sites"
        f"  dHPWL {hp.delta_pct:+.2f}%  violations {len(violations)}"
        f"  unplaced {unplaced}"
    )
    if args.out:
        path = _save(design, args.out, args.format)
        print(f"wrote {path}")
    return 1 if violations or unplaced else 0


def _cmd_gp(args: argparse.Namespace) -> int:
    from repro.gp import GlobalPlacerConfig, global_place

    design = _load(args.aux)
    design.reset_placement()
    t0 = time.perf_counter()
    global_place(
        design,
        GlobalPlacerConfig(seed=args.seed, iterations=args.iterations),
    )
    runtime = time.perf_counter() - t0
    print(
        f"global placement: {runtime:.2f}s  "
        f"HPWL {design.hpwl_um(use_gp=True) / 1e4:.4f} cm"
    )
    if args.out:
        path = _save(design, args.out, args.format)
        print(f"wrote {path}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    design = _load(args.aux)
    violations = verify_placement(design, power_aligned=not args.relaxed)
    if not violations:
        print("legal")
        return 0
    for v in violations[:50]:
        print(v)
    print(f"{len(violations)} violations")
    return 1


def _cmd_show(args: argparse.Namespace) -> int:
    from repro.geometry import Rect
    from repro.viz import render_ascii, render_svg

    design = _load(args.aux)
    window = Rect(*args.window) if args.window else None
    if args.svg:
        render_svg(design, window=window, show_gp=args.gp, path=args.svg)
        print(f"wrote {args.svg}")
    else:
        print(render_ascii(design, window=window, show_gp=args.gp))
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    design = _load(args.aux)
    fp = design.floorplan
    singles = sum(1 for c in design.cells if c.height == 1)
    doubles = sum(1 for c in design.cells if c.height == 2)
    taller = len(design.cells) - singles - doubles
    print(f"design:    {design.name}")
    print(f"floorplan: {fp.num_rows} rows x {fp.row_width} sites, "
          f"{len(fp.blockages)} blockages")
    print(f"cells:     {len(design.cells)} "
          f"({singles} single / {doubles} double / {taller} taller)")
    print(f"density:   {design.density():.3f}")
    print(f"nets:      {len(design.netlist)}")
    placed = sum(1 for c in design.cells if c.is_placed)
    print(f"placed:    {placed}")
    if placed:
        disp = displacement_stats(design)
        print(f"avg disp:  {disp.avg_sites:.3f} sites ({disp.avg_um:.3f} um)")
        print(f"HPWL:      {design.hpwl_um() / 1e4:.4f} cm")
    return 0


def _cmd_lint(argv: list[str]) -> int:
    from repro.analysis import runner

    return runner.run(argv)


def _cmd_callgraph(argv: list[str]) -> int:
    from repro.analysis import callgraph

    return callgraph.run(argv)


#: Subcommands whose parser lives with their implementation: ``main``
#: hands them the raw argument tail.
_FORWARDED = ("lint", "callgraph")


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import ServeConfig, run_server

    config = ServeConfig(
        host=args.host,
        port=args.port,
        max_sessions=args.max_sessions,
        max_inflight=args.max_inflight,
        queue_depth=args.queue_depth,
        fault_budget=args.fault_budget,
        snapshot_dir=args.snapshot_dir,
        allow_fault_injection=args.allow_fault_injection,
    )
    try:
        legalizer = LegalizerConfig(
            rx=args.rx,
            ry=args.ry,
            seed=args.seed,
            power_aligned=not args.relaxed,
        )
    except ValueError as exc:
        args.parser.error(str(exc))
    return asyncio.run(run_server(config, legalizer))


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.engine.remote import WorkerConfig, run_worker

    host, port = _parse_hostport(args.connect)
    return run_worker(
        WorkerConfig(
            host=host,
            port=port,
            name=args.name,
            connect_retries=args.connect_retries,
            connect_backoff_s=args.connect_backoff,
        )
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="multi-row height legalization toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic design")
    p.add_argument("--cells", type=int, default=2000)
    p.add_argument("--density", type=float, default=0.5)
    p.add_argument("--double-fraction", type=float, default=0.10)
    p.add_argument("--triple-fraction", type=float, default=0.0)
    p.add_argument("--blockages", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--name", default="design")
    p.add_argument("--fences", type=int, default=0)
    p.add_argument("--format", choices=["bookshelf", "lefdef"],
                   default="bookshelf")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("legalize", help="legalize a Bookshelf design")
    p.add_argument("aux")
    p.add_argument(
        "--algorithm",
        choices=["mll", "optimal", "milp", "abacus", "tetris"],
        default="mll",
    )
    p.add_argument("--relaxed", action="store_true",
                   help="drop the power-rail alignment constraint")
    p.add_argument("--exact", action="store_true",
                   help="exact insertion point evaluation")
    p.add_argument("--audit", action="store_true",
                   help="re-check every MLL insertion with the "
                        "independent legality checker (rolls back and "
                        "aborts on a violation)")
    p.add_argument("--rx", type=int, default=30)
    p.add_argument("--ry", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes for the sharded engine "
                        "(mll only; 0 = one per CPU)")
    p.add_argument("--shards", type=int, default=None,
                   help="vertical-stripe shard count (default: = workers)")
    p.add_argument("--halo", type=int, default=None,
                   help="shard halo width in sites (default: derived "
                        "from rx and the max cell width)")
    p.add_argument("--serial-threshold", type=int, default=2048,
                   help="below this many movable cells the engine runs "
                        "the plain sequential legalizer")
    p.add_argument("--shard-timeout", type=float, default=None,
                   metavar="S",
                   help="per-shard wall-clock budget in seconds; a "
                        "worker exceeding it is killed and the shard "
                        "retried (default: no timeout)")
    p.add_argument("--shard-retries", type=int, default=2,
                   help="worker-pool retries per shard before the "
                        "supervisor escalates to an in-process re-run")
    p.add_argument("--transport", choices=["local", "tcp"],
                   default="local",
                   help="where shards execute: the in-host pool "
                        "(default) or remote `repro worker` processes "
                        "over TCP (this run becomes the coordinator)")
    p.add_argument("--bind", default="127.0.0.1:0", metavar="HOST:PORT",
                   help="coordinator listen address for --transport "
                        "tcp (port 0 = ephemeral, printed on startup)")
    p.add_argument("--lease-ttl", type=float, default=30.0, metavar="S",
                   help="per-shard lease: a worker must deliver or "
                        "heartbeat within this window or its shard is "
                        "requeued")
    p.add_argument("--heartbeat-interval", type=float, default=5.0,
                   metavar="S",
                   help="how often busy workers renew their lease "
                        "(must be < --lease-ttl; sent to workers, no "
                        "worker-side knob needed)")
    p.add_argument("--worker-wait", type=float, default=30.0,
                   metavar="S",
                   help="how long the coordinator waits for the first "
                        "worker before degrading to the local pool")
    p.add_argument("--drain-grace", type=float, default=5.0,
                   metavar="S",
                   help="on SIGTERM, how long in-flight leases may "
                        "still deliver into the checkpoint")
    p.add_argument("--quarantine", action="store_true",
                   help="complete with partial legality when cells "
                        "exhaust the retry budget (reported in a "
                        "stuck-cell manifest) instead of failing the run")
    p.add_argument("--checkpoint", metavar="PATH",
                   help="snapshot completed shards to PATH (atomic "
                        "write-rename) so a killed run can be resumed")
    p.add_argument("--resume", metavar="PATH",
                   help="resume a killed run from its checkpoint, "
                        "skipping completed shards (keeps checkpointing "
                        "to the same file)")
    p.add_argument("--checkpoint-every", type=int, default=1,
                   metavar="N",
                   help="flush the checkpoint every N completed shards")
    p.add_argument("--out", help="directory for the legalized bundle")
    p.add_argument("--format", choices=["bookshelf", "lefdef"],
                   default="bookshelf")
    p.set_defaults(func=_cmd_legalize, parser=p)

    p = sub.add_parser("gp", help="global placement from the netlist")
    p.add_argument("aux")
    p.add_argument("--iterations", type=int, default=12)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="directory for the placed bundle")
    p.add_argument("--format", choices=["bookshelf", "lefdef"],
                   default="bookshelf")
    p.set_defaults(func=_cmd_gp)

    p = sub.add_parser("check", help="verify legality")
    p.add_argument("aux")
    p.add_argument("--relaxed", action="store_true")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("show", help="render a placement")
    p.add_argument("aux")
    p.add_argument("--svg", help="write an SVG instead of ASCII")
    p.add_argument("--gp", action="store_true", help="show GP positions")
    p.add_argument("--window", type=int, nargs=4,
                   metavar=("X", "Y", "W", "H"))
    p.set_defaults(func=_cmd_show)

    p = sub.add_parser("stats", help="print design statistics")
    p.add_argument("aux")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser(
        "lint", add_help=False,
        help="run repro-lint (AST invariant checks: journal-bypass, "
             "determinism, transaction-safety, exception taxonomy, "
             "strict typing); `repro lint --help` for its options",
    )
    p.set_defaults(func=_cmd_lint)

    p = sub.add_parser(
        "serve",
        help="run the legalization service (NDJSON over TCP): multiple "
             "resident designs, concurrent legalize/ECO requests with "
             "per-design FIFO serialization and commit-or-rollback "
             "isolation — see docs/serving.md",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7333,
                   help="TCP port (0 = ephemeral, printed on startup)")
    p.add_argument("--max-sessions", type=int, default=8,
                   help="resident designs before open/generate is "
                        "rejected with `busy`")
    p.add_argument("--max-inflight", type=int, default=4,
                   help="global cap on concurrently executing requests")
    p.add_argument("--queue-depth", type=int, default=16,
                   help="per-design FIFO depth before admission control "
                        "rejects with `busy`")
    p.add_argument("--fault-budget", type=int, default=3,
                   help="consecutive unexpected faults before a session "
                        "is quarantined")
    p.add_argument("--snapshot-dir", default=None,
                   help="directory for session snapshots (flushed for "
                        "every resident design on SIGTERM)")
    p.add_argument("--allow-fault-injection", action="store_true",
                   help="honor the fault_at test parameter on ECO "
                        "requests (tests/CI only)")
    p.add_argument("--rx", type=int, default=30)
    p.add_argument("--ry", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--relaxed", action="store_true",
                   help="serve with power-rail alignment disabled")
    p.set_defaults(func=_cmd_serve, parser=p)

    p = sub.add_parser(
        "worker",
        help="serve shards to a `repro legalize --transport tcp` "
             "coordinator: connect, steal tasks, heartbeat while "
             "computing, exit when drained — add one per spare host",
    )
    p.add_argument("--connect", required=True, metavar="HOST:PORT",
                   help="coordinator address (printed by the "
                        "coordinator on startup)")
    p.add_argument("--name", default="",
                   help="worker label in coordinator logs "
                        "(default: worker-<pid>)")
    p.add_argument("--connect-retries", type=int, default=20,
                   help="connection attempts before giving up (workers "
                        "routinely start before the coordinator binds)")
    p.add_argument("--connect-backoff", type=float, default=0.25,
                   metavar="S",
                   help="base delay between connection attempts "
                        "(doubles, capped at 2s)")
    p.set_defaults(func=_cmd_worker)

    p = sub.add_parser(
        "callgraph", add_help=False,
        help="export the whole-program call graph (JSON or DOT), "
             "optionally annotated with inferred effect summaries; "
             "`repro callgraph --help` for its options",
    )
    p.set_defaults(func=_cmd_callgraph)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args, rest = parser.parse_known_args(argv)
    if args.command in _FORWARDED:
        return args.func(rest)
    if rest:
        parser.error(f"unrecognized arguments: {' '.join(rest)}")
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
