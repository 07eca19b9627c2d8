"""One shard queue for every ``workers > 1`` run: contain, retry, degrade.

MLL windows are local, so ``run_shard`` is a pure function of its task:
any attempt of a shard writes the same bytes, whichever worker ran it
(retries reuse the shard's derived seed).  One :class:`ShardQueue`
therefore owns every attempt of a run: the pending attempts, the lease
each dispatched attempt holds, settle-once by shard id, the one retry
budget, escalation and the one :class:`SupervisionReport`.  Its methods
take ``now`` instead of reading a clock.

Two kinds of holder lease attempts from it, and
:meth:`ShardQueue.expire` times out both:

* a **pool slot** (:func:`run_pool`) — one :class:`multiprocessing.
  Process` and pipe per attempt, so a hung worker can be terminated and
  a crash stays inside its own attempt.  The lease ends
  ``shard_timeout_s`` after dispatch (never, by default);
* a **TCP peer** (:class:`~repro.engine.remote.TcpTransport`) — the
  lease moves out by ``lease_ttl_s`` on every heartbeat.

A failed attempt walks the **degradation ladder**: (1) up to
``max_shard_retries`` re-dispatches per shard, wherever its attempts
ran, with exponential backoff and deterministic jitter, for a transient
fault; (2) one in-process re-run (:func:`run_inprocess`), for a crash
or hang that only happens in a worker; (3) the whole-design serial
fallback, which the executor runs for a shard that raises everywhere.
Any successful attempt on any rung is byte-identical.
"""

from __future__ import annotations

import multiprocessing
import random
import threading
import time
import traceback
from dataclasses import dataclass, field, replace
from typing import Callable

from repro.engine.config import EngineConfig
from repro.engine.shard_worker import ShardOutcome, ShardTask, run_shard

#: Seconds between polls of the running workers.
POLL_INTERVAL_S = 0.02

#: Grace period between SIGTERM and SIGKILL when reaping a timed-out
#: worker.
TERMINATE_GRACE_S = 0.5

#: Multiplicative backoff jitter: each delay is scaled by a factor drawn
#: from ``[1, 1 + BACKOFF_JITTER]``.
BACKOFF_JITTER = 0.25


def backoff_delay_s(engine: EngineConfig, seed: int, attempt: int) -> float:
    """Exponential backoff with deterministic, decorrelated jitter.

    Attempt *k* (1-based) waits ``backoff_base_s * 2**(k-1)`` seconds,
    jittered by a factor drawn from ``[1, 1 + BACKOFF_JITTER]`` using a
    generator seeded from ``(seed, attempt)`` — the same (shard-derived)
    seed always reproduces the same delay sequence, and distinct shards
    decorrelate so retries never stampede in lockstep.
    ``backoff_max_s`` is a hard ceiling applied *after* jitter.
    """
    delay = min(
        engine.backoff_base_s * (2 ** (attempt - 1)), engine.backoff_max_s
    )
    if delay > 0:
        rng = random.Random((seed << 8) ^ attempt)
        delay = min(
            delay * (1.0 + BACKOFF_JITTER * rng.random()),
            engine.backoff_max_s,
        )
    return delay


# ----------------------------------------------------------------------
# Records
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class ShardAttempt:
    """One attempt at one shard, as the queue saw it."""

    shard_id: int
    attempt: int
    rung: str
    """``"remote"`` (TCP worker host), ``"pool"`` (worker process) or
    ``"inprocess"`` (escalation)."""
    status: str
    """``"ok"``, ``"crash"``, ``"timeout"``, ``"error"`` or
    ``"duplicate"`` (zombie-worker redelivery, remote rung only)."""
    elapsed_s: float
    detail: str = ""
    """Exit-code / timeout / traceback detail for failed attempts."""


@dataclass(slots=True)
class SupervisionReport:
    """What the shard queue observed across one engine run."""

    attempts: list[ShardAttempt] = field(default_factory=list)
    crashes: int = 0
    timeouts: int = 0
    errors: int = 0
    retries: int = 0
    """Re-dispatches to a worker, pool or remote (ladder rung 1)."""
    inprocess_escalations: int = 0
    """Shards that fell through to the in-process rung (rung 2)."""
    backoff_total_s: float = 0.0
    serial_fallback: bool = False
    """True when rung 3 is required: the executor must abandon the
    sharded plan entirely."""
    failed_shards: list[int] = field(default_factory=list)
    skipped_shards: list[int] = field(default_factory=list)
    """Shards satisfied from a resume checkpoint, never dispatched."""
    # -- distributed transport (populated only by the TCP coordinator) --
    lease_expiries: int = 0
    """Leases that expired without an outcome or heartbeat: the worker
    was declared dead/partitioned/hung and the shard requeued."""
    duplicate_results: int = 0
    """Outcomes redelivered for an already-settled shard attempt
    (zombie workers, retransmits) — deduped, never applied twice."""
    remote_workers: int = 0
    """Distinct worker connections the coordinator accepted."""
    remote_fallbacks: int = 0
    """Shards handed from remote workers to a local rung (no worker
    connected for ``worker_wait_s``, or the retry budget ran out on a
    remote attempt)."""

    @property
    def faults(self) -> int:
        """Total failed attempts of any kind."""
        return self.crashes + self.timeouts + self.errors

    def summary(self) -> str:
        """One-line digest for logs and the CLI."""
        parts = [
            f"attempts={len(self.attempts)}",
            f"crashes={self.crashes}",
            f"timeouts={self.timeouts}",
            f"errors={self.errors}",
            f"retries={self.retries}",
            f"inprocess={self.inprocess_escalations}",
        ]
        if self.remote_workers or self.remote_fallbacks:
            parts.append(f"remote_workers={self.remote_workers}")
            parts.append(f"lease_expiries={self.lease_expiries}")
            parts.append(f"duplicates={self.duplicate_results}")
            parts.append(f"remote_fallbacks={self.remote_fallbacks}")
        if self.skipped_shards:
            parts.append(f"resumed={len(self.skipped_shards)}")
        if self.serial_fallback:
            parts.append("serial_fallback=yes")
        return "supervisor: " + " ".join(parts)


# ----------------------------------------------------------------------
# The queue
# ----------------------------------------------------------------------
def lease_id(shard_id: int, attempt: int) -> str:
    """The attempt id a lease (and its result) is keyed by."""
    return f"s{shard_id}a{attempt}"


def lease_attempt(key: str) -> int:
    """The attempt number in lease id *key*; ``0`` when it has none."""
    _, _, tail = key.rpartition("a")
    try:
        return int(tail)
    except ValueError:
        return 0


@dataclass(slots=True)
class Lease:
    """One dispatched attempt (``task.attempt`` is its number) and the
    holder running it: a TCP connection id, or ``None`` for a pool
    slot or the in-process rung."""

    key: str
    task: ShardTask
    rung: str
    holder: int | None
    started: float
    deadline: float | None
    """When :meth:`ShardQueue.expire` times it out; ``None``: never."""


class ShardQueue:
    """Every attempt of one run's shards, whoever runs them.

    *tasks* arrive at attempt 1; *completed* outcomes (a resume
    checkpoint) settle their shards up front.  TCP handler threads call
    in concurrently, so every method takes the queue's lock; outcomes
    reach *on_outcome* only through :meth:`deliver`, on the calling
    thread (the checkpoint hook is not thread-safe).
    """

    def __init__(
        self,
        tasks: list[ShardTask],
        engine: EngineConfig,
        on_outcome: Callable[[ShardOutcome], None] | None = None,
        completed: dict[int, ShardOutcome] | None = None,
    ) -> None:
        self._lock = threading.Lock()
        self.engine = engine
        self.on_outcome = on_outcome
        with self._lock:
            self.report = SupervisionReport()
            self._settled: dict[int, ShardOutcome] = {}
            self._pending: list[tuple[float, int, ShardTask]] = []
            self._leases: dict[str, Lease] = {}
            self._escalated: list[ShardTask] = []
            self._deliveries: list[ShardOutcome] = []
            for task in sorted(tasks, key=lambda t: t.shard_id):
                sid = task.shard_id
                if completed and sid in completed:
                    self._settled[sid] = completed[sid]
                    self.report.skipped_shards.append(sid)
                else:
                    self._pending.append((0.0, sid, task))

    def lease(
        self, now: float, rung: str, holder: int | None = None
    ) -> Lease | None:
        """Hand the next ready attempt to a holder on *rung*, or ``None``.

        ``"pool"`` and ``"remote"`` take pending attempts whose backoff
        has passed; ``"inprocess"`` takes escalated shards in shard-id
        order, with no timeout (the trusted path)."""
        with self._lock:
            if rung == "inprocess":
                if not self._escalated:
                    return None
                task = min(self._escalated, key=lambda t: t.shard_id)
                self._escalated.remove(task)
                timeout = None
            else:
                self._pending.sort(key=lambda p: p[:2])
                if not self._pending or self._pending[0][0] > now:
                    return None
                task = self._pending.pop(0)[2]
                timeout = (
                    self.engine.lease_ttl_s
                    if rung == "remote"
                    else self.engine.shard_timeout_s
                )
            key = lease_id(task.shard_id, task.attempt)
            deadline = None if timeout is None else now + timeout
            lease = Lease(key, task, rung, holder, now, deadline)
            self._leases[key] = lease
            return lease

    def renew(self, key: str, now: float) -> None:
        """A heartbeat: move a TCP lease's deadline out by
        ``lease_ttl_s``.  Nothing renews a pool or in-process lease."""
        with self._lock:
            lease = self._leases.get(key)
            if lease is not None and lease.rung == "remote":
                lease.deadline = now + self.engine.lease_ttl_s

    def settle(
        self,
        key: str,
        shard_id: int,
        now: float,
        outcome: ShardOutcome | None = None,
        status: str = "ok",
        detail: str = "",
    ) -> None:
        """Close attempt *key* of *shard_id*: ``"ok"`` with its
        *outcome*, or a failure *status* with *detail*.  A shard settles
        once, by its first outcome (even one whose lease expired); any
        later report on it is booked as a ``duplicate`` and dropped."""
        with self._lock:
            lease = self._leases.pop(key, None)
            if lease is not None:
                attempt, rung = lease.task.attempt, lease.rung
                elapsed = now - lease.started
            else:  # only a TCP worker reports on a lease already closed
                attempt, rung, elapsed = lease_attempt(key), "remote", 0.0
            if shard_id in self._settled:
                self._book(
                    shard_id, attempt, rung, "duplicate", elapsed,
                    f"redelivery of settled shard {shard_id} ({key}) dropped",
                )
            elif outcome is not None:
                self._settled[shard_id] = outcome
                self._pending = [
                    p for p in self._pending if p[1] != shard_id
                ]
                self._escalated = [
                    t for t in self._escalated if t.shard_id != shard_id
                ]
                self._deliveries.append(outcome)
                self._book(shard_id, attempt, rung, "ok", elapsed)
            else:
                self._book(shard_id, attempt, rung, status, elapsed, detail)
                if lease is not None:
                    self._retry_or_escalate(lease, now)

    def expire(self, now: float) -> list[Lease]:
        """Time out every lease past its deadline and return them (the
        pool reaps their processes): the one place lease deadlines meet
        the clock."""
        with self._lock:
            expired = [
                lease
                for lease in self._leases.values()
                if lease.deadline is not None and lease.deadline <= now
            ]
            for lease in expired:
                if lease.rung == "remote":
                    detail = (
                        f"lease {lease.key} expired after "
                        f"{self.engine.lease_ttl_s}s without heartbeat "
                        f"or result"
                    )
                else:
                    detail = (
                        f"shard {lease.task.shard_id} attempt "
                        f"{lease.task.attempt} exceeded its "
                        f"{self.engine.shard_timeout_s}s wall-clock budget"
                    )
                self._fail(lease, now, "timeout", detail)
            return expired

    def drop_holder(self, holder: int, now: float) -> None:
        """A TCP worker's connection is gone: book one ``crash`` per
        lease it held."""
        with self._lock:
            for lease in [
                lease
                for lease in self._leases.values()
                if lease.holder == holder
            ]:
                self._fail(
                    lease, now, "crash",
                    f"worker connection lost with lease {lease.key} "
                    f"in flight",
                )

    def worker_joined(self) -> None:
        """Count one more TCP worker connection."""
        with self._lock:
            self.report.remote_workers += 1

    def hand_to_pool(self) -> None:
        """No TCP worker is left: count every pending shard as handed
        from the remote queue to the local pool."""
        with self._lock:
            self.report.remote_fallbacks += len(self._pending)

    def deliver(self) -> None:
        """Fire *on_outcome* for every newly settled outcome, in order."""
        with self._lock:
            batch = self._deliveries
            self._deliveries = []
        if self.on_outcome is not None:
            for outcome in batch:
                self.on_outcome(outcome)

    def has_leases(self) -> bool:
        """Attempts are running."""
        with self._lock:
            return bool(self._leases)

    def busy(self) -> bool:
        """Attempts wait, run, or await delivery."""
        with self._lock:
            return bool(self._pending or self._leases or self._deliveries)

    def outcomes(self) -> list[ShardOutcome]:
        """Every settled outcome, in shard-id order."""
        with self._lock:
            return [self._settled[sid] for sid in sorted(self._settled)]

    # ------------------------------------------------------------------
    # Bookkeeping (caller holds the lock)
    # ------------------------------------------------------------------
    def _fail(self, lease: Lease, now: float, status: str, detail: str) -> None:
        """Close *lease* as failed; if a zombie already settled its
        shard, the lease is just gone."""
        del self._leases[lease.key]
        task = lease.task
        if task.shard_id not in self._settled:
            self._book(
                task.shard_id, task.attempt, lease.rung, status,
                now - lease.started, detail,
            )
            self._retry_or_escalate(lease, now)

    def _retry_or_escalate(self, lease: Lease, now: float) -> None:
        """Requeue a failed attempt after backoff while the shard's one
        budget lasts, then escalate it to the in-process rung; a failed
        in-process attempt needs the serial fallback."""
        task = lease.task
        if lease.rung == "inprocess":
            self.report.failed_shards.append(task.shard_id)
            self.report.serial_fallback = True
        elif task.attempt <= self.engine.max_shard_retries:
            delay = backoff_delay_s(self.engine, task.seed, task.attempt)
            self.report.retries += 1
            self.report.backoff_total_s += delay
            self._pending.append(
                (now + delay, task.shard_id,
                 replace(task, attempt=task.attempt + 1))
            )
        else:
            self.report.inprocess_escalations += 1
            if lease.rung == "remote":
                self.report.remote_fallbacks += 1
            self._escalated.append(replace(task, attempt=task.attempt + 1))

    def _book(
        self,
        shard_id: int,
        attempt: int,
        rung: str,
        status: str,
        elapsed_s: float,
        detail: str = "",
    ) -> None:
        """Log one attempt and count its failure status."""
        self.report.attempts.append(
            ShardAttempt(shard_id, attempt, rung, status, elapsed_s, detail)
        )
        if status == "crash":
            self.report.crashes += 1
        elif status == "timeout":
            self.report.timeouts += 1
            if rung == "remote":
                self.report.lease_expiries += 1
        elif status == "error":
            self.report.errors += 1
        elif status == "duplicate":
            self.report.duplicate_results += 1


# ----------------------------------------------------------------------
# Pool slots
# ----------------------------------------------------------------------
@dataclass(slots=True)
class _Child:
    """One pool slot: the process and pipe running one attempt."""

    task: ShardTask
    process: multiprocessing.process.BaseProcess
    conn: "multiprocessing.connection.Connection"
    reaped: bool = False


def _shard_child(
    conn: "multiprocessing.connection.Connection", task: ShardTask
) -> None:
    """Worker-process entry point: run the shard, ship the outcome.

    An exception ships home as an ``("error", traceback)`` message, so
    a *thrown* failure is told apart from a *vanished* process.
    """
    try:
        outcome = run_shard(task, in_worker=True)
    # repro-lint: disable=RL3 -- process boundary: the failure is shipped
    # to the supervisor as an ("error", traceback) message, not swallowed
    except BaseException:  # noqa: BLE001 - ship every failure home
        payload = ("error", traceback.format_exc())
    else:
        payload = ("ok", outcome)
    try:
        conn.send(payload)
    finally:
        conn.close()


def run_pool(queue: ShardQueue, workers: int) -> None:
    """Serve *queue* to at most *workers* child processes, one per
    attempt, until it is idle.  Any exit (a signal, a checkpoint error)
    reaps every child: no orphaned workers."""
    ctx = multiprocessing.get_context()
    children: dict[str, _Child] = {}
    try:
        while queue.busy():
            now = time.monotonic()
            done = [
                key
                for key, child in children.items()
                if _poll(queue, key, child, now)
            ]
            done += [lease.key for lease in queue.expire(now)]
            for key in done:
                if key in children:  # leaves the dict only once reaped
                    _reap(children[key])
                    del children[key]
            queue.deliver()
            while len(children) < workers:
                lease = queue.lease(now, "pool")
                if lease is None:
                    break
                children[lease.key] = _spawn(ctx, lease.task)
            if not done:
                time.sleep(POLL_INTERVAL_S)
    finally:
        for child in children.values():
            _reap(child)


def _spawn(
    ctx: multiprocessing.context.BaseContext, task: ShardTask
) -> _Child:
    """Start one child running *task*."""
    recv, send = ctx.Pipe(duplex=False)
    process = ctx.Process(
        target=_shard_child,
        args=(send, task),
        name=f"repro-shard{task.shard_id}-a{task.attempt}",
        daemon=True,
    )
    process.start()
    try:
        send.close()  # parent keeps only the read end
    except Exception:
        # Closing our copy of the write end failed: reap the
        # just-started child instead of orphaning it.
        process.terminate()
        process.join()
        raise
    return _Child(task=task, process=process, conn=recv)


def _poll(queue: ShardQueue, key: str, child: _Child, now: float) -> bool:
    """Settle *child*'s attempt *key* if it reported or died; True if
    so."""
    sid, attempt = child.task.shard_id, child.task.attempt
    try:
        message = child.conn.recv() if child.conn.poll() else None
    except (EOFError, OSError):
        message = None  # died mid-send: a crash below
    if message is not None:
        kind, payload = message
        if kind == "ok":
            queue.settle(key, sid, now, payload)
        else:  # the worker raised: retryable, with traceback detail
            queue.settle(key, sid, now, status="error", detail=payload)
    elif not child.process.is_alive():
        # Vanished without a message (OOM kill, segfault, os._exit):
        # contained to this one attempt.  -N means killed by signal N.
        queue.settle(
            key, sid, now, status="crash",
            detail=f"shard {sid} worker (attempt {attempt}) died with "
            f"exitcode {child.process.exitcode} before delivering its "
            f"outcome",
        )
    else:
        return False
    return True


def _reap(child: _Child) -> None:
    """Close the pipe and make sure the child is gone.

    Idempotent: when delivering an outcome raises (a checkpoint write
    error, a signal), an already-reaped child is still among those
    :func:`run_pool`'s ``finally`` sweeps.
    """
    if child.reaped:
        return
    child.reaped = True
    try:
        child.conn.close()
    except OSError:  # pragma: no cover - already closed
        pass
    process = child.process
    if process.is_alive():
        process.terminate()
        process.join(TERMINATE_GRACE_S)
        if process.is_alive():  # pragma: no cover - stubborn child
            process.kill()
            process.join()
    else:
        process.join()
    # Release the Process object's OS resources promptly.
    close = getattr(process, "close", None)
    if close is not None:
        try:
            close()
        except ValueError:  # pragma: no cover - still shutting down
            pass


# ----------------------------------------------------------------------
# The in-process rung
# ----------------------------------------------------------------------
def run_inprocess(queue: ShardQueue) -> None:
    """Ladder rung 2: run each escalated shard in this process, immune
    to worker-process failure modes.  A shard that fails here too sets
    the report's ``serial_fallback``."""
    while True:
        now = time.monotonic()
        lease = queue.lease(now, "inprocess")
        if lease is None:
            return
        sid = lease.task.shard_id
        try:
            outcome = run_shard(lease.task)
        except Exception:  # noqa: BLE001 - record, then degrade
            detail = traceback.format_exc()
            queue.settle(
                lease.key, sid, time.monotonic(),
                status="error", detail=detail,
            )
        else:
            queue.settle(lease.key, sid, time.monotonic(), outcome)
        queue.deliver()
