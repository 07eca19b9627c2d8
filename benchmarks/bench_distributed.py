"""Distributed-transport chaos bench: throughput under injected faults.

Stands up a real TCP coordinator on localhost, feeds it a deterministic
worker-death schedule — one worker killed mid-shard, its replacement
retransmitting a result — and gates on the transport's whole contract:

* the final placement is **byte-identical** to a serial (``workers=1``)
  run of the same design;
* the quarantine manifest is **empty** (faults cost retries, never
  cells);
* the injected faults actually fired (``crashes >= 1``,
  ``duplicate_results >= 1``) — a chaos bench that silently ran clean
  measures nothing.

The schedule is deterministic, not a race: a doomed worker (armed with
``crash,shard=0``) is the only worker alive for the first steal, so the
mid-shard death always happens; its relief worker (armed with
``dup,shard=1``) is spawned only after the corpse is reaped, so the
requeue and the duplicate delivery always happen too.

Appends wall-clock and recovery counters to ``BENCH_distributed.json``
via :mod:`benchmarks.trajectory` so the CI ``distributed`` job grows a
reviewable perf history.  ``REPRO_BENCH_SCALE`` scales the cell count
like the Table 1 benches.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time

# Runnable as `python benchmarks/bench_distributed.py`: that puts the
# script's own directory on sys.path, not the repo root that makes the
# `benchmarks` package importable; pytest runs from the root already.
_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if _ROOT not in sys.path:
    sys.path.insert(0, _ROOT)
_SRC = os.path.join(_ROOT, "src")
if _SRC not in sys.path:  # pragma: no cover - import bootstrap
    sys.path.insert(0, _SRC)

from benchmarks.trajectory import record_run
from repro.bench import GeneratorConfig, generate_design
from repro.checker import verify_placement
from repro.core import LegalizerConfig
from repro.engine import (
    EngineConfig,
    TcpTransport,
    WorkerConfig,
    legalize_sharded,
    spawn_worker_process,
)
from repro.testing import ShardFaultSpec, design_state_digest

DEFAULT_CELLS = 5000


def _num_cells(default: int) -> int:
    scale = float(os.environ.get("REPRO_BENCH_SCALE", "0.02"))
    return max(1000, round(default * scale / 0.02))


def run_chaos(
    cells: int, shards: int, seed: int
) -> dict[str, object]:
    """One serial baseline + one chaos-schedule distributed run."""
    gen = GeneratorConfig(
        num_cells=cells, target_density=0.5, seed=seed, name="dist"
    )
    config = LegalizerConfig(seed=1, quarantine=True)

    # -- serial reference ---------------------------------------------
    baseline = generate_design(gen)
    t0 = time.perf_counter()
    legalize_sharded(
        baseline, config,
        EngineConfig(workers=1, shards=shards, serial_threshold=0),
    )
    serial_wall_s = time.perf_counter() - t0
    reference_digest = design_state_digest(baseline)

    # -- distributed run under a deterministic fault schedule ----------
    engine = EngineConfig(
        workers=2, shards=shards, serial_threshold=0,
        transport="tcp", bind_host="127.0.0.1", bind_port=0,
        lease_ttl_s=2.0, heartbeat_interval_s=0.2,
        worker_wait_s=60.0, drain_grace_s=5.0,
        backoff_base_s=0.01, backoff_max_s=0.05,
    )
    transport = TcpTransport(engine)

    def worker(name: str, fault: ShardFaultSpec | None):
        return spawn_worker_process(
            WorkerConfig(
                host=transport.host, port=transport.port, name=name,
                connect_retries=10, connect_backoff_s=0.05,
                fault=fault,
            )
        )

    doomed = worker("doomed", ShardFaultSpec(shard_id=0, mode="crash"))
    relief_holder: list[object] = []

    def send_relief() -> None:
        doomed.join(timeout=60)
        relief_holder.append(
            worker("relief", ShardFaultSpec(shard_id=1, mode="dup"))
        )

    spawner = threading.Thread(target=send_relief, daemon=True)
    spawner.start()

    design = generate_design(gen)
    t0 = time.perf_counter()
    result = legalize_sharded(design, config, engine, transport=transport)
    distributed_wall_s = time.perf_counter() - t0
    spawner.join(timeout=60)
    for proc in [doomed, *relief_holder]:
        proc.join(timeout=60)

    report = result.supervision
    digest = design_state_digest(design)
    violations = verify_placement(design)
    metrics: dict[str, object] = {
        "serial_wall_s": round(serial_wall_s, 4),
        "distributed_wall_s": round(distributed_wall_s, 4),
        "throughput_cells_per_s": round(cells / distributed_wall_s, 1),
        "digest_match": digest == reference_digest,
        "checker_violations": len(violations),
        "quarantined_cells": len(result.stuck.cells),
        "remote_workers": report.remote_workers,
        "crashes": report.crashes,
        "duplicate_results": report.duplicate_results,
        "lease_expiries": report.lease_expiries,
        "retries": report.retries,
        "remote_fallbacks": report.remote_fallbacks,
    }
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--cells", type=int, default=_num_cells(DEFAULT_CELLS)
    )
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument(
        "--no-trajectory", action="store_true",
        help="do not append to BENCH_distributed.json",
    )
    args = parser.parse_args(argv)

    params = {
        "cells": args.cells, "shards": args.shards, "seed": args.seed,
        "schedule": "crash(shard=0) then relief with dup(shard=1)",
    }
    metrics = run_chaos(args.cells, args.shards, args.seed)
    print(json.dumps({"params": params, "metrics": metrics}, indent=2))
    if not args.no_trajectory:
        path = record_run("distributed", metrics, params)
        print(f"trajectory: {path}")

    failures = []
    if not metrics["digest_match"]:
        failures.append("distributed digest diverged from serial run")
    if metrics["checker_violations"]:
        failures.append(f"{metrics['checker_violations']} checker violations")
    if metrics["quarantined_cells"]:
        failures.append(f"{metrics['quarantined_cells']} cells quarantined")
    if int(str(metrics["crashes"])) < 1:
        failures.append("crash fault never fired (crashes=0)")
    if int(str(metrics["duplicate_results"])) < 1:
        failures.append("dup fault never fired (duplicate_results=0)")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
