"""Shard transports: *where* shard tasks execute.

PR 8 lifts the executor's fan-out behind one seam: the executor
partitions, builds :class:`~repro.engine.shard_worker.ShardTask` value
objects, and merges :class:`~repro.engine.shard_worker.ShardOutcome`
deltas back — but *how the tasks reach a CPU* is a
:class:`ShardTransport`:

``LocalTransport``
    the in-host paths: serial in-process for ``workers=1``, otherwise
    worker processes serving a :class:`~repro.engine.supervisor.
    ShardQueue` (timeouts, crash containment, retry, the degradation
    ladder).  The default.

``TcpTransport`` (:mod:`repro.engine.remote`)
    a coordinator serving the same queue to ``repro worker`` processes
    on other hosts over NDJSON framing, with heartbeat-renewed leases,
    duplicate-result dedupe, and graceful drain.

The transport contract is deliberately narrow — ``execute(tasks)`` →
outcomes + a supervision report — and deterministic by construction:
``run_shard`` is a pure function of its task, every retry reuses the
shard's derived seed, and the executor applies deltas in shard-id
order, so *which* transport ran a shard (and any schedule of worker
deaths, reconnects or steals) cannot influence the final placement.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable

from repro.engine.config import EngineConfig
from repro.engine.shard_worker import ShardOutcome, ShardTask, run_shard
from repro.engine.supervisor import (
    ShardQueue,
    SupervisionReport,
    run_inprocess,
    run_pool,
)

#: Type of the per-outcome delivery hook (the checkpoint layer).
OutcomeHook = Callable[[ShardOutcome], None]


@dataclass(slots=True)
class TransportResult:
    """What a transport hands back to the executor."""

    outcomes: list[ShardOutcome] = field(default_factory=list)
    """Successful shard outcomes (any order; the executor sorts)."""

    supervision: SupervisionReport | None = None
    """Fault-handling record, ``None`` only on the in-process
    ``workers=1`` path."""

    workers: int = 1
    """Concurrency the transport actually used (local processes or
    distinct remote worker connections) — reported, not configured."""

    @property
    def serial_fallback(self) -> bool:
        """True when the sharded plan is unsalvageable and the executor
        must degrade to the whole-design sequential driver."""
        return (
            self.supervision is not None
            and self.supervision.serial_fallback
        )


class ShardTransport(ABC):
    """Strategy interface: execute shard tasks somewhere.

    Implementations must honor the executor's contract:

    * *completed* outcomes (resume checkpoint) are returned as-is,
      their shards never dispatched;
    * *on_outcome* fires exactly once per newly computed outcome, from
      the calling thread (the checkpoint layer is not thread-safe);
    * a returned :class:`TransportResult` with ``serial_fallback`` set
      means the outcomes are unusable as a set and the executor must
      degrade — transports never run the sequential driver themselves.
    """

    #: Short name surfaced in ``EngineResult.transport`` and the CLI.
    name: str = "abstract"

    @abstractmethod
    def execute(
        self,
        tasks: list[ShardTask],
        *,
        workers: int,
        on_outcome: OutcomeHook | None = None,
        completed: dict[int, ShardOutcome] | None = None,
    ) -> TransportResult:
        """Run every task not already in *completed*; see class docs."""


class LocalTransport(ShardTransport):
    """The in-host transport: ``workers <= 1`` runs shards serially
    in-process, anything more serves a :class:`ShardQueue` to that many
    worker processes."""

    name = "local"

    def __init__(self, engine: EngineConfig) -> None:
        self.engine = engine

    def execute(
        self,
        tasks: list[ShardTask],
        *,
        workers: int,
        on_outcome: OutcomeHook | None = None,
        completed: dict[int, ShardOutcome] | None = None,
    ) -> TransportResult:
        if workers <= 1:
            outcomes = self._run_inprocess(tasks, on_outcome, completed)
            return TransportResult(outcomes=outcomes, workers=1)
        queue = ShardQueue(tasks, self.engine, on_outcome, completed)
        run_pool(queue, workers)
        run_inprocess(queue)
        return TransportResult(queue.outcomes(), queue.report, workers)

    # ------------------------------------------------------------------
    @staticmethod
    def _run_inprocess(
        tasks: list[ShardTask],
        on_outcome: OutcomeHook | None,
        completed: dict[int, ShardOutcome] | None,
    ) -> list[ShardOutcome]:
        """``workers=1``: run shards serially in this process.

        Still honors the checkpoint (resume skips completed shards,
        completions are recorded); worker-process fault modes cannot
        fire here by construction."""
        done = completed if completed is not None else {}
        outcomes: list[ShardOutcome] = []
        for task in tasks:
            if task.shard_id in done:
                outcomes.append(done[task.shard_id])
                continue
            outcome = run_shard(task)
            if on_outcome is not None:
                on_outcome(outcome)
            outcomes.append(outcome)
        return outcomes


def make_transport(engine: EngineConfig) -> ShardTransport:
    """Build the transport selected by ``engine.transport``."""
    if engine.transport == "tcp":
        from repro.engine.remote import TcpTransport

        return TcpTransport(engine)
    return LocalTransport(engine)
