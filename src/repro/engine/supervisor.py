"""Supervised execution of shard tasks: contain, retry, degrade.

Every ``workers > 1`` run executes its shards under
:class:`ShardSupervisor`: a small supervision loop over one
:class:`multiprocessing.Process` per in-flight shard attempt (at most
``workers`` concurrently).  Owning the processes directly — instead of
renting them from a pool, where one dead worker poisons every in-flight
future — is what makes fault tolerance possible: a hung worker can be
*terminated* without collateral damage, and a crashed worker kills only
its own shard attempt, never its siblings.

Failure handling is a three-rung **degradation ladder**; each rung
covers a case the one before it cannot:

1. **retry in the pool** — up to ``EngineConfig.max_shard_retries``
   re-dispatches with exponential backoff + deterministic jitter, for
   a transient fault (OOM kill, a starved host);
2. **in-process re-run** — the shard executes inside the supervising
   process itself, for a crash or hang that only happens in a child;
3. **whole-design serial fallback** — the executor abandons the
   sharded plan and runs the plain sequential driver, for a shard that
   raises everywhere (correct by construction, just not parallel).

Determinism: a retried shard reuses its derived seed
(:func:`~repro.engine.shard_worker.shard_seed`), and ``run_shard`` is a
pure function of its task — so *any* successful attempt, on any rung,
yields byte-identical deltas, and a run that survives faults produces
the same placement as a fault-free one.
"""

from __future__ import annotations

import multiprocessing
import random
import time
import traceback
from dataclasses import dataclass, field, replace
from typing import Callable

from repro.engine.config import EngineConfig
from repro.engine.shard_worker import ShardOutcome, ShardTask, run_shard

#: Seconds between supervision-loop polls of the running workers.
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

    Shared by the local :class:`ShardSupervisor` and the TCP
    coordinator (:mod:`repro.engine.remote`), so the retry cadence is
    one policy regardless of where the shard runs.
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
    """One attempt at one shard, as the supervisor saw it."""

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
    """What the supervisor observed across one engine run."""

    attempts: list[ShardAttempt] = field(default_factory=list)
    crashes: int = 0
    timeouts: int = 0
    errors: int = 0
    retries: int = 0
    """Re-dispatches into the worker pool (ladder rung 1)."""
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
    """Shards handed from the remote queue to the local ladder (no
    worker joined in time, or remote retries exhausted)."""

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

    def absorb(self, other: "SupervisionReport") -> None:
        """Fold *other*'s counters into this report (remote phase +
        local-ladder phase of one run merge into a single report)."""
        self.attempts.extend(other.attempts)
        self.crashes += other.crashes
        self.timeouts += other.timeouts
        self.errors += other.errors
        self.retries += other.retries
        self.inprocess_escalations += other.inprocess_escalations
        self.backoff_total_s += other.backoff_total_s
        self.serial_fallback = self.serial_fallback or other.serial_fallback
        self.failed_shards.extend(other.failed_shards)
        self.skipped_shards.extend(other.skipped_shards)
        self.lease_expiries += other.lease_expiries
        self.duplicate_results += other.duplicate_results
        self.remote_workers += other.remote_workers
        self.remote_fallbacks += other.remote_fallbacks


@dataclass(slots=True)
class _Running:
    """Bookkeeping for one in-flight worker attempt."""

    task: ShardTask
    attempt: int
    process: multiprocessing.process.BaseProcess
    conn: "multiprocessing.connection.Connection"
    started: float
    deadline: float | None
    reaped: bool = False


def _shard_child(
    conn: "multiprocessing.connection.Connection", task: ShardTask
) -> None:
    """Worker-process entry point: run the shard, ship the outcome.

    Any exception is shipped back as a ``("error", traceback)`` message
    instead of a bare nonzero exit, so the supervisor can distinguish a
    *thrown* failure (retryable, with a readable traceback) from a
    *vanished* process (crash).
    """
    try:
        outcome = run_shard(task)
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


# ----------------------------------------------------------------------
# The supervisor
# ----------------------------------------------------------------------
class ShardSupervisor:
    """Run shard tasks under timeouts, crash containment and retry.

    Parameters:

    *tasks* — the shard tasks (any order; outcomes return sorted).
    *engine* — supervision knobs (:class:`EngineConfig`).
    *workers* — concurrent worker-process cap (default:
    ``engine.resolved_workers()``).
    *on_outcome* — optional callback invoked with each successful
    :class:`ShardOutcome` the moment it lands (the checkpoint layer
    hooks in here).
    *completed* — outcomes already known (from a resume checkpoint);
    their shards are never dispatched.

    :meth:`run` returns ``(outcomes, report)``.  When
    ``report.serial_fallback`` is set the outcomes are unusable as a
    set and the caller must degrade to the sequential path.
    """

    def __init__(
        self,
        tasks: list[ShardTask],
        engine: EngineConfig,
        workers: int | None = None,
        on_outcome: Callable[[ShardOutcome], None] | None = None,
        completed: dict[int, ShardOutcome] | None = None,
    ) -> None:
        self.tasks = sorted(tasks, key=lambda t: t.shard_id)
        self.engine = engine
        self.workers = (
            workers if workers is not None else engine.resolved_workers()
        )
        self.on_outcome = on_outcome
        self.completed = dict(completed) if completed else {}
        self.report = SupervisionReport()
        self._ctx = multiprocessing.get_context()

    # ------------------------------------------------------------------
    def run(self) -> tuple[list[ShardOutcome], SupervisionReport]:
        outcomes: dict[int, ShardOutcome] = {}
        escalate: list[ShardTask] = []

        # Resume: shards with checkpointed outcomes are already done.
        pending: list[tuple[float, int, ShardTask, int]] = []
        for task in self.tasks:
            if task.shard_id in self.completed:
                outcomes[task.shard_id] = self.completed[task.shard_id]
                self.report.skipped_shards.append(task.shard_id)
            else:
                pending.append((0.0, task.shard_id, task, 1))

        running: list[_Running] = []
        try:
            while pending or running:
                self._launch_ready(pending, running)
                progressed = self._poll_running(
                    running, pending, escalate, outcomes
                )
                if not progressed and (pending or running):
                    time.sleep(POLL_INTERVAL_S)
        finally:
            # On any abnormal exit (signal, checkpoint error, test
            # failure) reap every child: no orphaned workers.
            for rec in running:
                self._reap(rec)

        # Ladder rung 2: in-process escalation, in shard-id order.
        for task in sorted(escalate, key=lambda t: t.shard_id):
            self._run_inprocess(task, outcomes)

        if self.report.failed_shards:
            self.report.serial_fallback = True

        ordered = [outcomes[sid] for sid in sorted(outcomes)]
        return ordered, self.report

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def _launch_ready(
        self,
        pending: list[tuple[float, int, ShardTask, int]],
        running: list[_Running],
    ) -> None:
        now = time.monotonic()
        pending.sort()  # (not_before, shard_id) — deterministic order
        while len(running) < self.workers and pending:
            not_before, _, task, attempt = pending[0]
            if not_before > now:
                break
            pending.pop(0)
            running.append(self._spawn(task, attempt))

    def _spawn(self, task: ShardTask, attempt: int) -> _Running:
        attempt_task = replace(task, attempt=attempt)
        recv, send = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_shard_child,
            args=(send, attempt_task),
            name=f"repro-shard{task.shard_id}-a{attempt}",
            daemon=True,
        )
        now = time.monotonic()
        timeout = self.engine.shard_timeout_s
        process.start()
        try:
            send.close()  # parent keeps only the read end
        except Exception:
            # Closing our copy of the write end failed: reap the
            # just-started child instead of orphaning it.
            process.terminate()
            process.join()
            raise
        return _Running(
            task=task,
            attempt=attempt,
            process=process,
            conn=recv,
            started=now,
            deadline=(now + timeout) if timeout is not None else None,
        )

    # ------------------------------------------------------------------
    # Polling
    # ------------------------------------------------------------------
    def _poll_running(
        self,
        running: list[_Running],
        pending: list[tuple[float, int, ShardTask, int]],
        escalate: list[ShardTask],
        outcomes: dict[int, ShardOutcome],
    ) -> bool:
        progressed = False
        for rec in list(running):
            resolved = self._poll_one(rec, pending, escalate, outcomes)
            if resolved:
                running.remove(rec)
                progressed = True
        return progressed

    def _poll_one(
        self,
        rec: _Running,
        pending: list[tuple[float, int, ShardTask, int]],
        escalate: list[ShardTask],
        outcomes: dict[int, ShardOutcome],
    ) -> bool:
        """Check one in-flight attempt; return True when it resolved."""
        now = time.monotonic()
        elapsed = now - rec.started
        sid = rec.task.shard_id

        message = None
        if rec.conn.poll():
            try:
                message = rec.conn.recv()
            except (EOFError, OSError):
                message = None  # died mid-send: treat as a crash below

        if message is not None:
            kind, payload = message
            self._reap(rec)
            if kind == "ok":
                self._record(sid, rec.attempt, "pool", "ok", elapsed)
                self._deliver(payload, outcomes)
            else:  # worker raised: retryable, with traceback detail
                self.report.errors += 1
                self._record(
                    sid, rec.attempt, "pool", "error", elapsed, payload
                )
                self._retry_or_escalate(rec, pending, escalate, now)
            return True

        if not rec.process.is_alive():
            # Vanished without a message (OOM kill, segfault, os._exit):
            # contained to this one shard attempt.  The exit code follows
            # Process.exitcode: -N means killed by signal N.
            exitcode = rec.process.exitcode
            self._reap(rec)
            self.report.crashes += 1
            self._record(
                sid, rec.attempt, "pool", "crash", elapsed,
                f"shard {sid} worker (attempt {rec.attempt}) died with "
                f"exitcode {exitcode} before delivering its outcome",
            )
            self._retry_or_escalate(rec, pending, escalate, now)
            return True

        if rec.deadline is not None and now >= rec.deadline:
            self._reap(rec)  # terminate → kill → join
            self.report.timeouts += 1
            self._record(
                sid, rec.attempt, "pool", "timeout", elapsed,
                f"shard {sid} attempt {rec.attempt} exceeded its "
                f"{self.engine.shard_timeout_s}s wall-clock budget",
            )
            self._retry_or_escalate(rec, pending, escalate, now)
            return True

        return False

    # ------------------------------------------------------------------
    # Failure handling
    # ------------------------------------------------------------------
    def _retry_or_escalate(
        self,
        rec: _Running,
        pending: list[tuple[float, int, ShardTask, int]],
        escalate: list[ShardTask],
        now: float,
    ) -> None:
        sid = rec.task.shard_id
        if rec.attempt <= self.engine.max_shard_retries:
            delay = backoff_delay_s(self.engine, rec.task.seed, rec.attempt)
            self.report.retries += 1
            self.report.backoff_total_s += delay
            pending.append((now + delay, sid, rec.task, rec.attempt + 1))
        else:
            self.report.inprocess_escalations += 1
            escalate.append(rec.task)

    def _run_inprocess(
        self, task: ShardTask, outcomes: dict[int, ShardOutcome]
    ) -> None:
        """Ladder rung 2: run the shard in the supervising process.

        Immune to worker-process failure modes (no process to crash, no
        pipe to break); runs with the same derived seed, so a success
        here is byte-identical to a pool success.  No timeout applies —
        this is the trusted path.
        """
        sid = task.shard_id
        attempt = self.engine.max_shard_retries + 2
        t0 = time.monotonic()
        try:
            outcome = run_shard(replace(task, attempt=attempt))
        except Exception:  # noqa: BLE001 - record, then degrade
            self.report.errors += 1
            self._record(
                sid, attempt, "inprocess", "error",
                time.monotonic() - t0, traceback.format_exc(),
            )
            self.report.failed_shards.append(sid)
            return
        self._record(sid, attempt, "inprocess", "ok", time.monotonic() - t0)
        self._deliver(outcome, outcomes)

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _deliver(
        self, outcome: ShardOutcome, outcomes: dict[int, ShardOutcome]
    ) -> None:
        outcomes[outcome.shard_id] = outcome
        if self.on_outcome is not None:
            self.on_outcome(outcome)

    def _record(
        self,
        shard_id: int,
        attempt: int,
        rung: str,
        status: str,
        elapsed_s: float,
        detail: str = "",
    ) -> None:
        self.report.attempts.append(
            ShardAttempt(
                shard_id=shard_id,
                attempt=attempt,
                rung=rung,
                status=status,
                elapsed_s=elapsed_s,
                detail=detail,
            )
        )

    def _reap(self, rec: _Running) -> None:
        """Close the pipe and make sure the child is gone.

        Idempotent: when delivering an outcome raises (a checkpoint
        write error, a signal), the already-reaped attempt is still in
        the running list that :meth:`run`'s ``finally`` sweeps.
        """
        if rec.reaped:
            return
        rec.reaped = True
        try:
            rec.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        process = rec.process
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
