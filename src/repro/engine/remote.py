"""TCP shard transport: a lease-based work-stealing coordinator.

The run that owns the design acts as the **coordinator**: it binds a
listening socket, serves its shard queue to ``repro worker`` processes
on other hosts, and merges the outcomes exactly as if a local pool had
produced them.  Workers are dumb and stateless — connect, ``hello``,
then steal tasks until told to drain — so adding capacity is starting
another ``repro worker`` pointed at the coordinator, and *losing*
capacity is always recoverable:

* every dispatched shard holds a **lease** (``EngineConfig.
  lease_ttl_s``); a busy worker renews it with heartbeats.  A worker
  that dies, hangs, or falls off the network simply stops renewing,
  and the coordinator requeues the shard with the supervisor's own
  backoff policy (:func:`~repro.engine.supervisor.backoff_delay_s`);
* results are **idempotent**: a zombie worker delivering a shard that
  already settled (late stall, retransmit, duplicate send) is counted
  and dropped, never applied twice — ``run_shard`` is a pure function
  of its task, so any accepted copy is byte-identical anyway;
* the remote queue is rung 0 of the **degradation ladder**: shards
  that exhaust their remote retries — or the whole queue, when no
  worker joins within ``worker_wait_s`` — fall back to the local
  :class:`~repro.engine.supervisor.ShardSupervisor` (pool →
  in-process → serial);
* on **drain** (:meth:`TcpTransport.request_drain`, wired to SIGTERM
  by the CLI) the coordinator stops dispatching, honors in-flight
  leases for ``drain_grace_s`` so their outcomes reach the checkpoint,
  and then raises — a later run resumes from the checkpoint watermark.

Determinism: leases, steals, worker deaths and duplicates decide only
*when and where* a shard runs, never *what it computes* — every
attempt reuses the shard's derived seed and the executor applies
deltas in shard-id order, so the final placement is byte-identical
under any failure schedule (the ``repro.testing.netfaults`` chaos
harness asserts exactly this).
"""

from __future__ import annotations

import multiprocessing
import os
import socket
import sys
import threading
import time
import traceback
from dataclasses import dataclass, replace

from repro.engine.config import EngineConfig
from repro.engine.errors import RemoteProtocolError, TransportError
from repro.engine.shard_worker import ShardOutcome, ShardTask, run_shard
from repro.engine.supervisor import (
    POLL_INTERVAL_S,
    ShardAttempt,
    ShardSupervisor,
    SupervisionReport,
    backoff_delay_s,
)
from repro.engine.transport import OutcomeHook, ShardTransport, TransportResult
from repro.engine.wire import (
    WIRE_VERSION,
    LineChannel,
    message_float,
    message_int,
    message_str,
    pack_payload,
    unpack_payload,
)
from repro.testing.netfaults import NetFaultSpec, netfault_from_env

#: Delay a worker is told to sleep before re-stealing when the queue is
#: momentarily empty but work may still requeue (live leases).
STEAL_WAIT_S = 0.05


def lease_id(shard_id: int, attempt: int) -> str:
    """The attempt id a lease (and its result) is keyed by."""
    return f"s{shard_id}a{attempt}"


# ----------------------------------------------------------------------
# Coordinator
# ----------------------------------------------------------------------
@dataclass(slots=True)
class _Lease:
    """One dispatched shard attempt, held by one worker connection."""

    task: ShardTask
    attempt: int
    conn_id: int
    started: float
    deadline: float


class TcpTransport(ShardTransport):
    """Serve the shard queue to remote workers; single-use per run.

    The listening socket binds in the constructor so the ephemeral
    port (:attr:`port`) is known before any worker starts; accepting
    begins when :meth:`execute` runs.  Connection handler threads
    mutate the queue under one lock and only *enqueue* outcomes — the
    calling thread applies them, because the checkpoint hook is not
    thread-safe.
    """

    name = "tcp"

    def __init__(self, engine: EngineConfig) -> None:
        self.engine = engine
        self._listener = socket.create_server(
            (engine.bind_host, engine.bind_port), backlog=16
        )
        self._lock = threading.Lock()
        self._channels: dict[int, LineChannel] = {}
        self._helloed: set[int] = set()
        self._next_conn_id = 0
        self._pending: list[tuple[float, int, ShardTask, int]] = []
        self._leases: dict[str, _Lease] = {}
        self._settled: dict[int, ShardOutcome] = {}
        self._deliveries: list[ShardOutcome] = []
        self._escalate: list[ShardTask] = []
        self._last_worker_s: float | None = None
        self._draining = False
        self._drain_requested = False
        self._closing = False
        self.report = SupervisionReport()

    # ------------------------------------------------------------------
    @property
    def host(self) -> str:
        """The bound listen address."""
        return str(self._listener.getsockname()[0])

    @property
    def port(self) -> int:
        """The bound listen port (resolves ``bind_port=0``)."""
        return int(self._listener.getsockname()[1])

    def close(self) -> None:
        """Release the listening socket (idempotent).

        The constructor binds eagerly so :attr:`port` is known before
        workers start; a caller that fails between construction and
        :meth:`execute` uses this so the port does not leak."""
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - already closed
            pass

    def request_drain(self) -> None:
        """Graceful shutdown (the CLI's SIGTERM hook): stop dispatching,
        honor in-flight leases for ``drain_grace_s``, then abort the run
        with :class:`TransportError` so a resume picks up from the
        checkpoint watermark.  Safe to call from a signal handler."""
        with self._lock:
            self._drain_requested = True
            self._draining = True

    # ------------------------------------------------------------------
    def execute(
        self,
        tasks: list[ShardTask],
        *,
        workers: int,
        on_outcome: OutcomeHook | None = None,
        completed: dict[int, ShardOutcome] | None = None,
    ) -> TransportResult:
        outcomes: dict[int, ShardOutcome] = {}
        with self._lock:
            for task in sorted(tasks, key=lambda t: t.shard_id):
                if completed and task.shard_id in completed:
                    outcome = completed[task.shard_id]
                    self._settled[task.shard_id] = outcome
                    outcomes[task.shard_id] = outcome
                    self.report.skipped_shards.append(task.shard_id)
                else:
                    self._pending.append((0.0, task.shard_id, task, 1))

        accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-coordinator-accept",
            daemon=True,
        )
        accept_thread.start()
        started = time.monotonic()
        try:
            self._serve(started, on_outcome, outcomes)
        finally:
            self._drain(on_outcome, outcomes)
        if self._drain_requested:
            with self._lock:
                unsettled = [
                    sid
                    for _, sid, _, _ in self._pending
                ] + [rec.task.shard_id for rec in self._leases.values()]
            if unsettled or len(outcomes) + len(self._escalate) < len(tasks):
                raise TransportError(
                    "coordinator drained on request with shards "
                    "outstanding; completed work is checkpointed — "
                    "rerun with --resume to continue from the watermark"
                )

        # Ladder: shards the remote phase could not finish run on the
        # local supervisor (pool -> in-process -> serial fallback).
        if self._escalate:
            local = ShardSupervisor(
                sorted(self._escalate, key=lambda t: t.shard_id),
                self.engine,
                workers=workers,
                on_outcome=on_outcome,
                completed=None,
            )
            local_outcomes, local_report = local.run()
            # Handler threads may still be in their _drop_peer
            # finalizers (they mutate the report under the lock), so
            # the absorb takes it too.
            with self._lock:
                self.report.absorb(local_report)
            for outcome in local_outcomes:
                outcomes[outcome.shard_id] = outcome

        ordered = [outcomes[sid] for sid in sorted(outcomes)]
        return TransportResult(
            outcomes=ordered,
            supervision=self.report,
            workers=max(1, self.report.remote_workers),
        )

    # ------------------------------------------------------------------
    # Main-thread serving loop
    # ------------------------------------------------------------------
    def _serve(
        self,
        started: float,
        on_outcome: OutcomeHook | None,
        outcomes: dict[int, ShardOutcome],
    ) -> None:
        while True:
            self._apply_deliveries(on_outcome, outcomes)
            with self._lock:
                if self._drain_requested:
                    return
                now = time.monotonic()
                self._expire_leases(now)
                self._check_worker_wait(started, now)
                idle = (
                    not self._pending
                    and not self._leases
                    and not self._deliveries
                )
            if idle:
                return
            time.sleep(POLL_INTERVAL_S)

    def _apply_deliveries(
        self,
        on_outcome: OutcomeHook | None,
        outcomes: dict[int, ShardOutcome],
    ) -> None:
        """Apply queued outcomes from the calling thread, in order."""
        with self._lock:
            batch = self._deliveries
            self._deliveries = []
        for outcome in batch:
            outcomes[outcome.shard_id] = outcome
            if on_outcome is not None:
                on_outcome(outcome)

    def _expire_leases(self, now: float) -> None:
        """Declare silent workers dead; requeue their shards.

        Caller holds the lock."""
        for key in [
            k for k, rec in self._leases.items() if rec.deadline <= now
        ]:
            rec = self._leases.pop(key)
            sid = rec.task.shard_id
            if sid in self._settled:
                continue  # a zombie already delivered this shard
            self.report.lease_expiries += 1
            self.report.timeouts += 1
            self._record(
                sid, rec.attempt, "timeout", now - rec.started,
                f"lease {key} expired after "
                f"{self.engine.lease_ttl_s}s without heartbeat or result",
            )
            self._retry_or_escalate(rec.task, rec.attempt, now)

    def _check_worker_wait(self, started: float, now: float) -> None:
        """Work is queued but no worker is connected: degrade.

        Covers both "no worker ever joined" and "every worker died":
        the wait clock restarts whenever a live worker is present, so
        a fleet that crashed out entirely gets ``worker_wait_s`` to
        reconnect before the queue degrades to the local ladder.

        Caller holds the lock."""
        if self._helloed or not self._pending:
            return
        reference = (
            self._last_worker_s if self._last_worker_s is not None else started
        )
        if now - reference <= self.engine.worker_wait_s:
            return
        moved = [task for _, _, task, _ in self._pending]
        self._pending.clear()
        self._escalate.extend(moved)
        self.report.remote_fallbacks += len(moved)

    def _drain(
        self,
        on_outcome: OutcomeHook | None,
        outcomes: dict[int, ShardOutcome],
    ) -> None:
        """Stop dispatching, give in-flight leases a grace window so
        their outcomes land in the checkpoint, then tear everything
        down."""
        with self._lock:
            self._draining = True
            grace = bool(self._leases)
        if grace:
            now = time.monotonic()
            deadline = now + self.engine.drain_grace_s
            while now < deadline:
                self._apply_deliveries(on_outcome, outcomes)
                with self._lock:
                    if not self._leases:
                        break
                time.sleep(POLL_INTERVAL_S)
                now = time.monotonic()
        self._apply_deliveries(on_outcome, outcomes)
        with self._lock:
            self._closing = True
            channels = list(self._channels.values())
            self._channels.clear()
        self.close()
        for channel in channels:
            channel.close()

    # ------------------------------------------------------------------
    # Connection handling (one thread per worker connection)
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        while True:
            try:
                sock, _addr = self._listener.accept()
            except OSError:
                return  # listener closed: the run is over
            with self._lock:
                if self._closing:
                    sock.close()
                    return
                conn_id = self._next_conn_id
                self._next_conn_id += 1
                channel = LineChannel(sock)
                self._channels[conn_id] = channel
            handler = threading.Thread(
                target=self._serve_peer,
                args=(conn_id, channel),
                name=f"repro-coordinator-peer{conn_id}",
                daemon=True,
            )
            handler.start()

    def _serve_peer(self, conn_id: int, channel: LineChannel) -> None:
        try:
            while True:
                message = channel.recv()
                if message is None:
                    return  # clean disconnect
                op = message_str(message, "op")
                if op == "hello":
                    self._on_hello(conn_id, message)
                elif op == "steal":
                    self._on_steal(conn_id, channel)
                elif op == "heartbeat":
                    self._on_heartbeat(message)
                elif op == "result":
                    self._on_result(message)
                else:
                    raise RemoteProtocolError(
                        f"unexpected worker op {op!r}"
                    )
        except (OSError, RemoteProtocolError, ValueError):
            return  # broken peer: leases requeue in _drop_peer
        finally:
            self._drop_peer(conn_id, channel)

    def _on_hello(self, conn_id: int, message: dict[str, object]) -> None:
        version = message_int(message, "version")
        if version != WIRE_VERSION:
            raise RemoteProtocolError(
                f"worker speaks wire version {version}, "
                f"coordinator speaks {WIRE_VERSION}"
            )
        with self._lock:
            if conn_id not in self._helloed:
                now = time.monotonic()
                self._helloed.add(conn_id)
                self._last_worker_s = now
                self.report.remote_workers += 1

    def _on_steal(self, conn_id: int, channel: LineChannel) -> None:
        with self._lock:
            if conn_id not in self._helloed:
                raise RemoteProtocolError("steal before hello")
            now = time.monotonic()
            if self._draining:
                reply: dict[str, object] = {"op": "drain"}
            else:
                self._pending.sort()
                ready = self._pending and self._pending[0][0] <= now
                if ready:
                    _, sid, task, attempt = self._pending.pop(0)
                    key = lease_id(sid, attempt)
                    self._leases[key] = _Lease(
                        task=task,
                        attempt=attempt,
                        conn_id=conn_id,
                        started=now,
                        deadline=now + self.engine.lease_ttl_s,
                    )
                    reply = {
                        "op": "task",
                        "lease": key,
                        "shard": sid,
                        "attempt": attempt,
                        "heartbeat": self.engine.heartbeat_interval_s,
                        "payload": pack_payload(
                            replace(task, attempt=attempt)
                        ),
                    }
                elif self._pending or self._leases:
                    reply = {"op": "wait", "delay": STEAL_WAIT_S}
                else:
                    reply = {"op": "drain"}
        channel.send(reply)

    def _on_heartbeat(self, message: dict[str, object]) -> None:
        key = message_str(message, "lease")
        with self._lock:
            rec = self._leases.get(key)
            if rec is not None:
                now = time.monotonic()
                rec.deadline = now + self.engine.lease_ttl_s

    def _on_result(self, message: dict[str, object]) -> None:
        key = message_str(message, "lease")
        sid = message_int(message, "shard")
        status = message_str(message, "status")
        with self._lock:
            now = time.monotonic()
            rec = self._leases.pop(key, None)
            elapsed = now - rec.started if rec is not None else 0.0
            attempt = rec.attempt if rec is not None else _lease_attempt(key)
            if sid in self._settled:
                # Idempotence: zombie redelivery of a settled shard
                # (stall past its lease, retransmit, duplicate send).
                self.report.duplicate_results += 1
                self._record(
                    sid, attempt, "duplicate", elapsed,
                    f"redelivery of settled shard {sid} ({key}) dropped",
                )
                return
            if status == "ok":
                # repro-lint: disable=RL12 -- worker hosts are operator
                # -deployed trusted peers (the wire contract in wire.py
                # restricts payloads to frozen value objects); the
                # isinstance check below rejects anything else.
                payload = unpack_payload(message_str(message, "payload"))
                if not isinstance(payload, ShardOutcome):
                    raise RemoteProtocolError(
                        f"result payload for shard {sid} is not a "
                        f"ShardOutcome"
                    )
                self._settled[sid] = payload
                self._pending[:] = [
                    p for p in self._pending if p[1] != sid
                ]
                self._deliveries.append(payload)
                self._record(sid, attempt, "ok", elapsed)
            else:
                detail = message_str(message, "detail")
                self.report.errors += 1
                self._record(sid, attempt, "error", elapsed, detail)
                if rec is not None:
                    self._retry_or_escalate(rec.task, rec.attempt, now)

    def _drop_peer(self, conn_id: int, channel: LineChannel) -> None:
        """Connection gone (EOF, RST, protocol violation): requeue its
        leases as crashes and forget the channel."""
        with self._lock:
            self._channels.pop(conn_id, None)
            if conn_id in self._helloed:
                self._helloed.discard(conn_id)
                self._last_worker_s = time.monotonic()
            now = time.monotonic()
            orphaned = [
                k
                for k, rec in self._leases.items()
                if rec.conn_id == conn_id
            ]
            for key in orphaned:
                rec = self._leases.pop(key)
                sid = rec.task.shard_id
                if sid in self._settled:
                    continue
                self.report.crashes += 1
                self._record(
                    sid, rec.attempt, "crash", now - rec.started,
                    f"worker connection lost with lease {key} in flight",
                )
                self._retry_or_escalate(rec.task, rec.attempt, now)
        channel.close()

    # ------------------------------------------------------------------
    def _retry_or_escalate(
        self, task: ShardTask, attempt: int, now: float
    ) -> None:
        """Requeue with the unified backoff policy, or hand the shard
        to the local ladder when its remote retries are spent.

        Caller holds the lock."""
        sid = task.shard_id
        if attempt <= self.engine.max_shard_retries:
            delay = backoff_delay_s(self.engine, task.seed, attempt)
            self.report.retries += 1
            self.report.backoff_total_s += delay
            self._pending.append((now + delay, sid, task, attempt + 1))
        else:
            self.report.remote_fallbacks += 1
            self._escalate.append(task)

    def _record(
        self,
        shard_id: int,
        attempt: int,
        status: str,
        elapsed_s: float,
        detail: str = "",
    ) -> None:
        """Append a ``rung="remote"`` attempt record.

        Caller holds the lock (or the run is single-threaded)."""
        self.report.attempts.append(
            ShardAttempt(
                shard_id=shard_id,
                attempt=attempt,
                rung="remote",
                status=status,
                elapsed_s=elapsed_s,
                detail=detail,
            )
        )


def _lease_attempt(key: str) -> int:
    """Best-effort attempt number parsed back out of a lease id."""
    _, _, tail = key.rpartition("a")
    try:
        return int(tail)
    except ValueError:
        return 0


# ----------------------------------------------------------------------
# Worker
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class WorkerConfig:
    """One ``repro worker``'s connection parameters."""

    host: str
    port: int
    name: str = ""
    connect_retries: int = 20
    """Connection attempts before giving up — workers routinely start
    before the coordinator binds, so the first connects may fail."""
    connect_backoff_s: float = 0.25
    """Base delay between connection attempts (doubles, capped 2s)."""
    netfault: NetFaultSpec | None = None
    """Chaos hook; when ``None`` the ``REPRO_NET_FAULT`` environment
    variable is consulted (CI chaos smokes need no code hook)."""


def _connect(config: WorkerConfig) -> LineChannel:
    """Dial the coordinator with bounded exponential backoff."""
    attempts = max(1, config.connect_retries)
    delay = config.connect_backoff_s
    last_error = ""
    for attempt in range(attempts):
        try:
            sock = socket.create_connection(
                (config.host, config.port), timeout=10.0
            )
        except OSError as exc:
            last_error = str(exc)
            if attempt + 1 < attempts:
                time.sleep(delay)
                delay = min(delay * 2, 2.0)
            continue
        try:
            sock.settimeout(None)
            return LineChannel(sock)
        except Exception:
            # A post-connect failure (settimeout / makefile) must not
            # leak the dialed socket; dial errors retry above, setup
            # errors propagate.
            sock.close()
            raise
    raise TransportError(
        f"could not reach coordinator at {config.host}:{config.port} "
        f"after {attempts} attempts: {last_error}"
    )


def _heartbeat_loop(
    channel: LineChannel,
    key: str,
    interval_s: float,
    stop: threading.Event,
) -> None:
    """Renew one lease until the shard finishes (or the link dies)."""
    while not stop.wait(interval_s):
        try:
            channel.send({"op": "heartbeat", "lease": key})
        except OSError:
            return


def run_worker(config: WorkerConfig) -> int:
    """Serve shards until the coordinator drains; returns an exit code.

    ``0`` — drained cleanly (or the coordinator closed while we were
    idle); ``1`` — the connection died and the reconnect budget ran
    out mid-run.
    """
    fault = (
        config.netfault if config.netfault is not None else netfault_from_env()
    )
    reconnects = max(1, config.connect_retries)
    while True:
        try:
            channel = _connect(config)
        except TransportError:
            return 1
        try:
            channel.send(
                {
                    "op": "hello",
                    "version": WIRE_VERSION,
                    "name": config.name or f"worker-{os.getpid()}",
                    "pid": os.getpid(),
                }
            )
            verdict = _steal_loop(channel, fault)
        except (OSError, RemoteProtocolError):
            verdict = "lost"
        finally:
            channel.close()
        if verdict == "drain":
            return 0
        if verdict == "closed":
            return 0
        reconnects -= 1
        if reconnects <= 0:
            return 1


def _steal_loop(channel: LineChannel, fault: NetFaultSpec | None) -> str:
    """One connection's steal/compute/deliver cycle.

    Returns ``"drain"`` (told to exit), ``"closed"`` (EOF while idle),
    or ``"lost"`` (link broke; caller may reconnect)."""
    while True:
        channel.send({"op": "steal"})
        reply = channel.recv()
        if reply is None:
            return "closed"
        op = message_str(reply, "op")
        if op == "drain":
            return "drain"
        if op == "wait":
            time.sleep(message_float(reply, "delay"))
            continue
        if op != "task":
            raise RemoteProtocolError(f"unexpected coordinator op {op!r}")
        verdict = _run_task(channel, reply, fault)
        if verdict != "ok":
            return verdict


def _run_task(
    channel: LineChannel,
    reply: dict[str, object],
    fault: NetFaultSpec | None,
) -> str:
    """Execute one leased task and deliver (or chaos-break) its result."""
    key = message_str(reply, "lease")
    sid = message_int(reply, "shard")
    attempt = message_int(reply, "attempt")
    interval_s = message_float(reply, "heartbeat")
    # repro-lint: disable=RL12 -- the coordinator is the worker's own
    # operator-deployed peer (workers dial it by explicit host:port);
    # the isinstance check below rejects any non-ShardTask payload.
    task = unpack_payload(message_str(reply, "payload"))
    if not isinstance(task, ShardTask):
        raise RemoteProtocolError(
            f"task payload for lease {key} is not a ShardTask"
        )
    armed = fault is not None and fault.armed_for(sid, attempt)
    if armed and fault is not None and fault.mode == "kill":
        fault.kill_now()  # no-op outside a child process
    stall = armed and fault is not None and fault.mode == "stall"

    stop = threading.Event()
    heartbeat: threading.Thread | None = None
    if not stall:  # a stalled worker goes silent: no renewals either
        heartbeat = threading.Thread(
            target=_heartbeat_loop,
            args=(channel, key, interval_s, stop),
            name=f"repro-worker-heartbeat-{key}",
            daemon=True,
        )
        heartbeat.start()
    try:
        result: dict[str, object]
        try:
            outcome = run_shard(task)
        except Exception:  # noqa: BLE001 - ship every failure home
            result = {
                "op": "result",
                "lease": key,
                "shard": sid,
                "status": "error",
                "detail": traceback.format_exc(),
            }
        else:
            result = {
                "op": "result",
                "lease": key,
                "shard": sid,
                "status": "ok",
                "payload": pack_payload(outcome),
            }
    finally:
        stop.set()
        if heartbeat is not None:
            heartbeat.join(timeout=1.0)

    if armed and fault is not None and fault.mode == "drop":
        channel.abort()  # RST: the computed result dies with the link
        return "lost"
    if stall and fault is not None:
        time.sleep(fault.sleep_s)  # lease expires; we become a zombie
    channel.send(result)
    if armed and fault is not None and fault.mode == "dup":
        channel.send(result)  # retransmit: must dedupe coordinator-side
    return "ok"


def _worker_process_entry(config: WorkerConfig) -> None:
    """Module-level ``Process`` target (picklable across spawn)."""
    sys.exit(run_worker(config))


def spawn_worker_process(config: WorkerConfig) -> multiprocessing.process.BaseProcess:
    """Start a worker as a local child process (tests, benchmarks, and
    single-host smoke runs of the TCP transport)."""
    ctx = multiprocessing.get_context()
    process = ctx.Process(
        target=_worker_process_entry,
        args=(config,),
        name=f"repro-worker-{config.name or 'anon'}",
        daemon=True,
    )
    process.start()
    return process
