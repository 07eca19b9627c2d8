"""TCP shard transport: serve the shard queue to remote workers.

The run that owns the design acts as the **coordinator**: it binds a
listening socket and serves its :class:`~repro.engine.supervisor.
ShardQueue` to ``repro worker`` processes on other hosts.  Workers are
stateless — connect, ``hello``, then steal tasks until told to drain —
so capacity is added by starting another worker, and lost capacity is
always recoverable:

* a dispatched shard's **lease** (``lease_ttl_s``) moves out on every
  heartbeat; a worker that dies, hangs or falls off the network stops
  renewing, and the queue times the attempt out and retries it;
* results are **idempotent**: a shard settles once, and a zombie's
  late or repeated delivery is counted and dropped;
* when no worker has been connected for ``worker_wait_s``, the local
  pool serves the same queue, so attempts keep their numbers and their
  one retry budget;
* on **drain** (:meth:`TcpTransport.request_drain`, wired to SIGTERM
  by the CLI) the coordinator stops dispatching, honors in-flight
  leases for ``drain_grace_s`` so their outcomes reach the checkpoint,
  and then raises — a later run resumes from the checkpoint watermark.

Leases, steals, worker deaths and duplicates decide only *when and
where* a shard runs, never *what it computes*, so the final placement
is byte-identical under any failure schedule.
"""

from __future__ import annotations

import multiprocessing
import os
import socket
import sys
import threading
import time
import traceback
from dataclasses import dataclass

from repro.engine.config import EngineConfig
from repro.engine.errors import RemoteProtocolError, TransportError
from repro.engine.shard_worker import ShardOutcome, ShardTask, run_shard
from repro.engine.supervisor import (
    POLL_INTERVAL_S,
    ShardQueue,
    lease_attempt,
    lease_id,
    run_inprocess,
    run_pool,
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
from repro.testing.faults import ShardFaultSpec, worker_fault_from_env

#: Delay a worker is told to sleep before re-stealing when the queue is
#: momentarily empty but work may still requeue (live leases).
STEAL_WAIT_S = 0.05


# ----------------------------------------------------------------------
# Coordinator
# ----------------------------------------------------------------------
class TcpTransport(ShardTransport):
    """Serve the shard queue to remote workers; single-use per run.

    The listening socket binds in the constructor so the ephemeral
    port (:attr:`port`) is known before any worker starts; accepting
    begins when :meth:`execute` runs.  Connection handler threads
    lease and settle attempts in the queue, which only *enqueues*
    outcomes — the calling thread delivers them, because the
    checkpoint hook is not thread-safe.  Lock order: this transport's
    lock, then the queue's.
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
        self._last_worker_s = 0.0
        self._draining = False
        self._drain_requested = False
        self._closing = False

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
        queue = ShardQueue(tasks, self.engine, on_outcome, completed)
        accept_thread = threading.Thread(
            target=self._accept_loop, args=(queue,),
            name="repro-coordinator-accept", daemon=True,
        )
        with self._lock:
            now = time.monotonic()
            self._last_worker_s = now  # the wait for workers starts
        accept_thread.start()
        try:
            to_pool = self._serve(queue)
        finally:
            self._drain(queue)
        if self._drain_requested and queue.busy():
            raise TransportError(
                "coordinator drained on request with shards "
                "outstanding; completed work is checkpointed — "
                "rerun with --resume to continue from the watermark"
            )
        if to_pool:
            # Ladder: no worker is left, so the local pool serves the
            # same queue; attempts keep their numbers and budget.
            queue.hand_to_pool()
            run_pool(queue, workers)
        run_inprocess(queue)
        connected = max(1, queue.report.remote_workers)
        return TransportResult(queue.outcomes(), queue.report, connected)

    # ------------------------------------------------------------------
    # Main-thread serving loop
    # ------------------------------------------------------------------
    def _serve(self, queue: ShardQueue) -> bool:
        """Serve workers until the queue is idle or a drain is requested
        (False), or until no worker has been connected for
        ``worker_wait_s`` while work waits (True: the pool takes over).
        A fleet that crashed out entirely gets as long to reconnect."""
        while True:
            queue.deliver()
            with self._lock:
                if self._drain_requested:
                    return False
                now = time.monotonic()
                if (
                    not self._helloed
                    and now - self._last_worker_s > self.engine.worker_wait_s
                    and queue.busy()
                ):
                    self._draining = True
                    return True
            queue.expire(now)
            if not queue.busy():
                return False
            time.sleep(POLL_INTERVAL_S)

    def _drain(self, queue: ShardQueue) -> None:
        """Stop dispatching, give in-flight leases a grace window so
        their outcomes land in the checkpoint, then tear everything
        down."""
        with self._lock:
            self._draining = True
        now = time.monotonic()
        deadline = now + self.engine.drain_grace_s
        while now < deadline and queue.has_leases():
            queue.deliver()
            time.sleep(POLL_INTERVAL_S)
            now = time.monotonic()
        queue.deliver()
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
    def _accept_loop(self, queue: ShardQueue) -> None:
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
                args=(conn_id, channel, queue),
                name=f"repro-coordinator-peer{conn_id}",
                daemon=True,
            )
            handler.start()

    def _serve_peer(
        self, conn_id: int, channel: LineChannel, queue: ShardQueue
    ) -> None:
        try:
            while True:
                message = channel.recv()
                if message is None:
                    return  # clean disconnect
                op = message_str(message, "op")
                if op == "hello":
                    self._on_hello(conn_id, message, queue)
                elif op == "steal":
                    self._on_steal(conn_id, channel, queue)
                elif op == "heartbeat":
                    now = time.monotonic()
                    queue.renew(message_str(message, "lease"), now)
                elif op == "result":
                    _on_result(message, queue)
                else:
                    raise RemoteProtocolError(
                        f"unexpected worker op {op!r}"
                    )
        except (OSError, RemoteProtocolError, ValueError):
            return  # broken peer: leases requeue in _drop_peer
        finally:
            self._drop_peer(conn_id, channel, queue)

    def _on_hello(
        self, conn_id: int, message: dict[str, object], queue: ShardQueue
    ) -> None:
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
                queue.worker_joined()

    def _on_steal(
        self, conn_id: int, channel: LineChannel, queue: ShardQueue
    ) -> None:
        with self._lock:
            if conn_id not in self._helloed:
                raise RemoteProtocolError("steal before hello")
            now = time.monotonic()
            lease = None
            if not self._draining:
                lease = queue.lease(now, "remote", conn_id)
            if lease is not None:
                reply: dict[str, object] = {
                    "op": "task",
                    "lease": lease.key,
                    "shard": lease.task.shard_id,
                    "attempt": lease.task.attempt,
                    "heartbeat": self.engine.heartbeat_interval_s,
                    "payload": pack_payload(lease.task),
                }
            elif not self._draining and queue.busy():
                reply = {"op": "wait", "delay": STEAL_WAIT_S}
            else:
                reply = {"op": "drain"}
        channel.send(reply)

    def _drop_peer(
        self, conn_id: int, channel: LineChannel, queue: ShardQueue
    ) -> None:
        """Connection gone (EOF, RST, protocol violation): requeue its
        leases as crashes and forget the channel."""
        with self._lock:
            self._channels.pop(conn_id, None)
            now = time.monotonic()
            if conn_id in self._helloed:
                self._helloed.discard(conn_id)
                self._last_worker_s = now
            queue.drop_holder(conn_id, now)
        channel.close()


def _on_result(message: dict[str, object], queue: ShardQueue) -> None:
    """Settle a worker's ``result`` message in *queue*.

    A result whose ``shard`` disagrees with its lease id or with its
    payload's ``shard_id`` is a protocol error: it would settle one
    shard with another's outcome."""
    key = message_str(message, "lease")
    sid = message_int(message, "shard")
    if key != lease_id(sid, lease_attempt(key)):
        raise RemoteProtocolError(
            f"result labelled shard {sid} arrived on lease {key!r}"
        )
    if message_str(message, "status") != "ok":
        detail = message_str(message, "detail")
        now = time.monotonic()
        queue.settle(key, sid, now, status="error", detail=detail)
        return
    # Worker hosts are operator-deployed trusted peers (the wire
    # contract in wire.py restricts payloads to frozen value objects);
    # the isinstance check below rejects anything else.
    payload = unpack_payload(message_str(message, "payload"))
    if not isinstance(payload, ShardOutcome) or payload.shard_id != sid:
        raise RemoteProtocolError(
            f"result payload for shard {sid} is not its ShardOutcome"
        )
    now = time.monotonic()
    queue.settle(key, sid, now, payload)


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
    fault: ShardFaultSpec | None = None
    """Chaos hook for the tasks this worker runs that carry none; when
    ``None`` the ``REPRO_WORKER_FAULT`` environment variable is
    consulted (CI chaos smokes need no code hook)."""


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
    fault = config.fault if config.fault is not None else worker_fault_from_env()
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
        if verdict in ("drain", "closed"):
            return 0
        reconnects -= 1
        if reconnects <= 0:
            return 1


def _steal_loop(channel: LineChannel, fault: ShardFaultSpec | None) -> str:
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
    fault: ShardFaultSpec | None,
) -> str:
    """Execute one leased task and deliver (or chaos-break) its result.

    *fault* arms the task unless it carries its own."""
    key = message_str(reply, "lease")
    sid = message_int(reply, "shard")
    attempt = message_int(reply, "attempt")
    interval_s = message_float(reply, "heartbeat")
    # The coordinator is the worker's own operator-deployed peer
    # (workers dial it by explicit host:port); the isinstance check
    # below rejects any non-ShardTask payload.
    task = unpack_payload(message_str(reply, "payload"))
    if not isinstance(task, ShardTask):
        raise RemoteProtocolError(
            f"task payload for lease {key} is not a ShardTask"
        )
    fault = task.fault or fault
    mode = fault.mode if fault and fault.armed_for(sid, attempt) else None

    stop = threading.Event()
    heartbeat: threading.Thread | None = None
    if mode != "hang":  # a hung worker goes silent: no renewals either
        heartbeat = threading.Thread(
            target=_heartbeat_loop,
            args=(channel, key, interval_s, stop),
            name=f"repro-worker-heartbeat-{key}",
            daemon=True,
        )
        heartbeat.start()
    result: dict[str, object] = {"op": "result", "lease": key, "shard": sid}
    try:
        try:
            outcome = run_shard(task, in_worker=True, fault=fault)
        except Exception:  # noqa: BLE001 - ship every failure home
            result.update(status="error", detail=traceback.format_exc())
        else:
            result.update(status="ok", payload=pack_payload(outcome))
    finally:
        stop.set()
        if heartbeat is not None:
            heartbeat.join(timeout=1.0)

    if mode == "drop":
        channel.abort()  # RST: the computed result dies with the link
        return "lost"
    channel.send(result)
    if mode == "dup":
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
