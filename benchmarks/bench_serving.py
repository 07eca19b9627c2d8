"""Load-test harness for the legalization service.

Drives N concurrent socket clients against M resident designs with a
deterministic mixed-ECO trace from :mod:`repro.bench.traffic`, then
proves the serving tentpole's two promises:

* **commit-or-rollback**: every request either committed (its seq and
  digest advance) or rolled back (error / ``committed: false``, state
  untouched);
* **serializability**: replaying each session's executed requests in
  the server's ``seq`` order on a fresh identical design reproduces the
  server's final ``design_state_digest`` byte-for-byte, and that final
  placement passes the independent legality checker.

Reports throughput and client-side latency percentiles, and appends
them to ``BENCH_serving.json`` via :mod:`benchmarks.trajectory`.

Run standalone (in-process server)::

    PYTHONPATH=src python benchmarks/bench_serving.py \
        --clients 8 --sessions 2 --requests 64

or against a live server (the CI serving job)::

    PYTHONPATH=src python benchmarks/bench_serving.py \
        --connect 127.0.0.1:7333 --clients 8 --sessions 2
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time
from dataclasses import dataclass, field

# Standalone invocation (`python benchmarks/bench_serving.py`) puts the
# script's own directory on sys.path, not the repo root that makes the
# `benchmarks` package importable; pytest runs from the root already.
_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if _ROOT not in sys.path:
    sys.path.insert(0, _ROOT)

from repro.bench import (
    GeneratorConfig,
    TrafficConfig,
    TrafficRequest,
    generate_design,
    generate_traffic,
)
from repro.checker import verify_placement
from repro.core import LegalizerConfig
from repro.serve import Client, DesignSession, ServeConfig, ServerHandle
from repro.testing import design_state_digest

from benchmarks.trajectory import percentiles, record_run

#: Mirrors the server's `generate` op defaults (session replay must
#: rebuild the identical design).
GENERATE_DENSITY = 0.45
GENERATE_DOUBLE_FRACTION = 0.1


def session_names(count: int) -> list[str]:
    return [f"chip{chr(ord('A') + i)}" for i in range(count)]


def session_seed(base_seed: int, index: int) -> int:
    return base_seed + 17 * (index + 1)


@dataclass(slots=True)
class LoadResult:
    """Everything one load run produced."""

    wall_s: float = 0.0
    latencies_ms: list[float] = field(default_factory=list)
    committed: int = 0
    rolled_back: int = 0
    errors: int = 0
    executed: dict[str, list[tuple[int, TrafficRequest]]] = field(
        default_factory=dict
    )
    final_digests: dict[str, str] = field(default_factory=dict)
    replay_matched: dict[str, bool] = field(default_factory=dict)
    replay_violations: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(self.replay_matched.values()) and all(
            v == 0 for v in self.replay_violations.values()
        )


def _drive_client(
    host: str,
    port: int,
    trace: list[TrafficRequest],
    result: LoadResult,
    lock: threading.Lock,
) -> None:
    """One load worker: its own connection, its slice of the trace."""
    with Client(host, port) as client:
        for request in trace:
            t0 = time.perf_counter()
            response = client.request(
                request.op, request.session, request.params
            )
            latency_ms = (time.perf_counter() - t0) * 1e3
            with lock:
                result.latencies_ms.append(latency_ms)
                if not response.ok:
                    result.errors += 1
                    continue
                seq = response.result.get("seq")
                committed = response.result.get("committed", True)
                if committed:
                    result.committed += 1
                else:
                    result.rolled_back += 1
                # Every executed request (committed or rolled back)
                # participates in the replay: rollbacks are
                # deterministic no-ops and must replay as such.
                if isinstance(seq, int):
                    result.executed.setdefault(
                        request.session, []
                    ).append((seq, request))


def _replay_session(
    name: str,
    index: int,
    cells: int,
    base_seed: int,
    executed: list[tuple[int, TrafficRequest]],
) -> tuple[str, int]:
    """Rebuild the design and replay executed ECOs in seq order.

    Returns (final digest, checker violations) — the serialized
    reference the concurrent run must match byte-for-byte.
    """
    seed = session_seed(base_seed, index)
    design = generate_design(
        GeneratorConfig(
            num_cells=cells,
            target_density=GENERATE_DENSITY,
            double_row_fraction=GENERATE_DOUBLE_FRACTION,
            seed=seed,
            name=name,
        )
    )
    session = DesignSession(
        name, design, LegalizerConfig(seed=seed)
    )
    session.execute("legalize", {})
    for _, request in sorted(executed, key=lambda pair: pair[0]):
        try:
            session.execute(request.op, request.params)
        except Exception:
            # The live run answered this one with an error after
            # rolling back; the replay hits the identical error.
            pass
    violations = verify_placement(
        session.design, require_all_placed=False
    )
    # From scratch, not through the session's memo: the live server's
    # memoized digests are checked against the reference rendering.
    return design_state_digest(session.design), len(violations)


def run_load(
    clients: int = 8,
    sessions: int = 2,
    requests: int = 64,
    cells: int = 150,
    seed: int = 0,
    connect: tuple[str, int] | None = None,
    verify_replay: bool = True,
) -> LoadResult:
    """One full load run; starts an in-process server unless connected."""
    names = session_names(sessions)
    handle: ServerHandle | None = None
    if connect is None:
        handle = ServerHandle(
            ServeConfig(max_sessions=max(sessions, 2), max_inflight=4)
        ).start()
        host, port = handle.config.host, handle.port or 0
    else:
        host, port = connect

    result = LoadResult()
    try:
        with Client(host, port) as setup:
            extents: list[float] = []
            for i, name in enumerate(names):
                setup.result(
                    "generate",
                    name,
                    {"cells": cells, "seed": session_seed(seed, i)},
                )
                setup.result("legalize", name, {})
                stats = setup.result("stats", name)
                die = stats.get("die_um")
                if isinstance(die, list) and len(die) == 2:
                    extents.append(float(die[0]))
                    extents.append(float(die[1]))
            extent = min(extents) if extents else 50.0

            trace = generate_traffic(
                TrafficConfig(
                    seed=seed,
                    num_requests=requests,
                    sessions=tuple(names),
                    cells_per_session=cells,
                    nets_per_session=round(1.1 * cells),
                    extent_um=(extent, extent),
                )
            )
            # The legalize above was seq 1 on every session; ECOs follow.
            slices: list[list[TrafficRequest]] = [
                [] for _ in range(clients)
            ]
            for request in trace:
                slices[request.index % clients].append(request)

            lock = threading.Lock()
            workers = [
                threading.Thread(
                    target=_drive_client,
                    args=(host, port, chunk, result, lock),
                    name=f"load-client-{i}",
                )
                for i, chunk in enumerate(slices)
            ]
            t0 = time.perf_counter()
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()
            result.wall_s = time.perf_counter() - t0

            for name in names:
                digest = setup.result("digest", name)
                result.final_digests[name] = str(digest["digest"])

        if verify_replay:
            for i, name in enumerate(names):
                replay_digest, violations = _replay_session(
                    name,
                    i,
                    cells,
                    seed,
                    result.executed.get(name, []),
                )
                result.replay_matched[name] = (
                    replay_digest == result.final_digests[name]
                )
                result.replay_violations[name] = violations
    finally:
        if handle is not None:
            handle.stop()
    return result


def summarize(result: LoadResult, params: dict[str, object]) -> dict[str, object]:
    served = result.committed + result.rolled_back + result.errors
    metrics: dict[str, object] = {
        "wall_s": round(result.wall_s, 3),
        "throughput_rps": round(served / result.wall_s, 2)
        if result.wall_s > 0
        else 0.0,
        "served": served,
        "committed": result.committed,
        "rolled_back": result.rolled_back,
        "errors": result.errors,
        "replay_matched": all(result.replay_matched.values()),
        "replay_violations": sum(result.replay_violations.values()),
    }
    for key, value in percentiles(result.latencies_ms).items():
        metrics[f"latency_ms_{key}"] = round(value, 2)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="serving-layer load test (see docs/serving.md)"
    )
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--sessions", type=int, default=2)
    parser.add_argument("--requests", type=int, default=64)
    parser.add_argument("--cells", type=int, default=150)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--connect",
        metavar="HOST:PORT",
        help="drive a live server instead of an in-process one",
    )
    parser.add_argument(
        "--no-replay",
        action="store_true",
        help="skip the serialized-replay equivalence check",
    )
    parser.add_argument(
        "--no-trajectory",
        action="store_true",
        help="do not append to BENCH_serving.json",
    )
    args = parser.parse_args(argv)

    connect: tuple[str, int] | None = None
    if args.connect:
        host, _, port = args.connect.rpartition(":")
        connect = (host or "127.0.0.1", int(port))

    result = run_load(
        clients=args.clients,
        sessions=args.sessions,
        requests=args.requests,
        cells=args.cells,
        seed=args.seed,
        connect=connect,
        verify_replay=not args.no_replay,
    )
    params = {
        "clients": args.clients,
        "sessions": args.sessions,
        "requests": args.requests,
        "cells": args.cells,
        "seed": args.seed,
        "mode": "connect" if connect else "in-process",
    }
    metrics = summarize(result, params)
    print(json.dumps({"params": params, "metrics": metrics}, indent=2))
    if not args.no_trajectory:
        path = record_run("serving", metrics, params)
        print(f"trajectory: {path}")
    if not args.no_replay and not result.ok:
        mismatches = [
            name
            for name, matched in result.replay_matched.items()
            if not matched
        ]
        print(
            f"FAIL: replay mismatch on {mismatches}, "
            f"violations={result.replay_violations}",
            file=sys.stderr,
        )
        return 1
    return 0


# ----------------------------------------------------------------------
# pytest wrapper (runs when the benchmarks suite is invoked explicitly)
# ----------------------------------------------------------------------
def test_serving_load(benchmark) -> None:
    """8 concurrent clients, 2 resident designs, replay-verified."""

    def run() -> LoadResult:
        return run_load(
            clients=8, sessions=2, requests=24, cells=100, seed=7
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    served = result.committed + result.rolled_back + result.errors
    assert served == 24
    assert result.ok, (
        f"replay mismatch: {result.replay_matched} "
        f"violations={result.replay_violations}"
    )
    benchmark.extra_info["throughput_rps"] = round(
        served / max(result.wall_s, 1e-9), 2
    )
    benchmark.extra_info["committed"] = result.committed
    benchmark.extra_info["rolled_back"] = result.rolled_back


if __name__ == "__main__":
    sys.exit(main())
