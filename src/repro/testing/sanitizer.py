"""Differential runtime sanitizer: keep the static summaries honest.

:mod:`repro.analysis.dataflow` *predicts* which effects every function
can exhibit.  Predictions rot: a new helper that mutates the design
through an attribute the resolver cannot type, a dynamic dispatch the
call graph cannot link — each would silently punch a hole in RL7's
transitive reasoning.  This module closes the loop at runtime:

* Under ``REPRO_SANITIZE=1`` (or inside an explicit
  :class:`Sanitizer` block) the journaled primitives —
  ``Design.place``/``unplace``/``shift_x``/``add_cell``,
  ``Journal._record``, ``Transaction.__enter__`` — are wrapped so every
  invocation records an :class:`EffectEvent` charging the effect to
  **every repro-owned stack frame** above it (via ``co_qualname``, the
  runtime twin of the call graph's static qualified names).
* The **shard boundary** is instrumented too: ``run_shard`` opens its
  own trace inside the worker process, ships the serialized events back
  in :attr:`ShardOutcome.sanitizer_events`, and the executor absorbs
  them into the parent's active traces — so effects observed behind the
  process boundary still face the static model.
* :func:`check_trace` is the differential judge: every observed
  ``(frame, effect)`` pair must be contained in the frame's *static
  transitive summary*.  Any gap means the static analysis under-
  approximated reality and CI fails.
* The **race tracer** (:class:`RaceTracer`) is the runtime twin of the
  concurrency model behind RL9–RL11: while armed it additionally
  records, for every journaled mutation, the transaction depth and the
  number of ``threading`` locks held on the current thread, and it
  detects *awaits inside an open Transaction* with an event-loop probe
  (a ``call_soon`` callback can only run before ``__exit__`` if the
  transaction body suspended).  :func:`check_race_trace` then asserts
  the runtime observations are a subset of the static predictions:
  every await-in-transaction must land in RL9's statically computed
  region, every mutation under an open transaction must have a
  statically known transaction-opening frame on its stack, and every
  mutation under a held lock must land inside a statically known lock
  scope.
* The **resource tracer** (:class:`ResourceTracer`) is the runtime
  twin of RL13's lifecycle typestate: while armed it records every
  socket, file handle, and ``threading`` lock repro code acquires, and
  :func:`check_resource_trace` asserts that anything still unreleased
  at trace end originates in a function RL13 already flags — runtime
  leaks must be a subset of the static findings.
* The **taint probe** (:class:`TaintProbe`) is the runtime twin of
  RL12: it wraps the typed wire extractors (the sanitizers the static
  taint rule credits) and the filesystem/config sinks, and
  :func:`check_taint_trace` asserts every sink the serve stack reaches
  at runtime is downstream of at least one extractor on its thread.

Instrumentation is observation-only — the wrappers call straight
through — so a sanitized run must produce byte-identical placements to
an uninstrumented one (asserted by the differential smoke test).
"""

from __future__ import annotations

import argparse
import asyncio
import builtins
import importlib
import os
import socket
import sys
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Sequence

import repro
from repro.testing.faults import ENV_FLAG, sanitizer_enabled  # noqa: F401 - re-export

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.callgraph import Program
    from repro.analysis.dataflow import EffectSummary
    from repro.engine.shard_worker import ShardOutcome

#: Serialized event form shipped across the process boundary.
SerializedEvent = tuple[str, str, tuple[str, ...]]


@dataclass(frozen=True, slots=True)
class EffectEvent:
    """One observed effect, charged to the enclosing repro frames."""

    effect: str
    """Effect-lattice element (``repro.analysis.dataflow`` constant)."""

    primitive: str
    """The instrumented primitive that fired (``Design.place`` ...)."""

    frames: tuple[str, ...]
    """Qualified names of the repro-owned frames on the stack at the
    time of the call, innermost first."""

    def serialize(self) -> SerializedEvent:
        return (self.effect, self.primitive, self.frames)

    @classmethod
    def deserialize(cls, raw: SerializedEvent) -> "EffectEvent":
        effect, primitive, frames = raw
        return cls(
            effect=effect, primitive=primitive, frames=tuple(frames)
        )


@dataclass(slots=True)
class EffectTrace:
    """Actual-effect log of one sanitized region."""

    events: list[EffectEvent] = field(default_factory=list)

    def observed(self) -> dict[str, frozenset[str]]:
        """Frame qname → set of effects observed under that frame."""
        out: dict[str, set[str]] = {}
        for event in self.events:
            for frame in event.frames:
                out.setdefault(frame, set()).add(event.effect)
        return {q: frozenset(out[q]) for q in sorted(out)}

    def serialized(self) -> tuple[SerializedEvent, ...]:
        return tuple(e.serialize() for e in self.events)


# ----------------------------------------------------------------------
# Trace stack + monkeypatch lifecycle
# ----------------------------------------------------------------------
# The active-trace stack is intentionally module-level mutable state:
# the wrapped primitives must find it without threading a handle through
# every call signature.  It is parent-process bookkeeping — run_shard
# opens a *fresh* trace inside each worker and ships events back by
# value — so fork/spawn divergence of the stack itself is harmless.
_TRACES: list[EffectTrace] = []
_ORIGINALS: dict[str, Callable[..., Any]] = {}

_REPRO_ROOT = os.path.dirname(os.path.abspath(repro.__file__))
_SELF_FILE = os.path.abspath(__file__)


def _frame_qnames() -> tuple[str, ...]:
    """Qualified names of repro-owned frames on the stack, innermost
    first — skipping this module and synthetic scopes (``<module>``,
    ``<listcomp>``, lambdas), whose work the static model attributes to
    the enclosing function."""
    qnames: list[str] = []
    frame = sys._getframe(1)
    while frame is not None:
        filename = os.path.abspath(frame.f_code.co_filename)
        if (
            filename.startswith(_REPRO_ROOT + os.sep)
            and filename != _SELF_FILE
        ):
            qualname = frame.f_code.co_qualname
            if not qualname.rsplit(".", 1)[-1].startswith("<"):
                module = _module_of_file(filename)
                qnames.append(f"{module}.{qualname}")
        frame = frame.f_back
    return tuple(qnames)


def _module_of_file(filename: str) -> str:
    rel = os.path.relpath(filename, os.path.dirname(_REPRO_ROOT))
    parts = rel.replace(os.sep, "/").split("/")
    parts[-1] = parts[-1][: -len(".py")]
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _record(effect: str, primitive: str) -> None:
    if not _TRACES:
        return
    event = EffectEvent(
        effect=effect, primitive=primitive, frames=_frame_qnames()
    )
    for trace in _TRACES:
        trace.events.append(event)


def _wrap(
    owner: type, method: str, effect: str, primitive: str
) -> None:
    original = getattr(owner, method)
    _ORIGINALS[primitive] = original

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        _record(effect, primitive)
        return original(*args, **kwargs)

    wrapper.__name__ = method
    wrapper.__qualname__ = original.__qualname__
    setattr(owner, method, wrapper)


def _patch() -> None:
    from repro.analysis.dataflow import JOURNALS, MUTATES, TRANSACTION
    from repro.db.design import Design
    from repro.db.journal import Journal, Transaction

    _wrap(Design, "place", MUTATES, "Design.place")
    _wrap(Design, "unplace", MUTATES, "Design.unplace")
    _wrap(Design, "shift_x", MUTATES, "Design.shift_x")
    _wrap(Design, "add_cell", MUTATES, "Design.add_cell")
    _wrap(Journal, "_record", JOURNALS, "Journal._record")
    _wrap(Transaction, "__enter__", TRANSACTION, "Transaction.__enter__")


def _unpatch() -> None:
    from repro.db.design import Design
    from repro.db.journal import Journal, Transaction

    owners = {
        "Design.place": (Design, "place"),
        "Design.unplace": (Design, "unplace"),
        "Design.shift_x": (Design, "shift_x"),
        "Design.add_cell": (Design, "add_cell"),
        "Journal._record": (Journal, "_record"),
        "Transaction.__enter__": (Transaction, "__enter__"),
    }
    for primitive in sorted(_ORIGINALS):
        owner, method = owners[primitive]
        setattr(owner, method, _ORIGINALS[primitive])
    _ORIGINALS.clear()


class Sanitizer:
    """Context manager: record actual effects within the block.

    Nesting is supported (each level sees the events of everything
    below it); the primitives are patched on the first entry and
    restored on the last exit, so an un-sanitized process never pays
    the wrapper cost.
    """

    def __init__(self) -> None:
        self.trace = EffectTrace()

    def __enter__(self) -> EffectTrace:
        if not _TRACES:
            _patch()
        _TRACES.append(self.trace)
        return self.trace

    def __exit__(self, *exc_info: object) -> None:
        # Remove by *identity*: EffectTrace has dataclass value equality
        # and a nested trace that saw exactly the same events would
        # otherwise evict the outer one.
        for index, trace in enumerate(_TRACES):
            if trace is self.trace:
                del _TRACES[index]
                break
        if not _TRACES:
            _unpatch()


def absorb_events(serialized: Sequence[SerializedEvent]) -> None:
    """Merge worker-side events (from ``ShardOutcome.sanitizer_events``)
    into every active trace of this process — the parent half of the
    shard-boundary instrumentation."""
    if not _TRACES or not serialized:
        return
    events = [EffectEvent.deserialize(raw) for raw in serialized]
    for trace in _TRACES:
        trace.events.extend(events)


def absorb_outcomes(outcomes: "Sequence[ShardOutcome]") -> None:
    """Absorb the sanitizer events of every shard outcome."""
    for outcome in outcomes:
        absorb_events(outcome.sanitizer_events)


# ----------------------------------------------------------------------
# The differential check
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class Gap:
    """One observed effect the static model failed to predict."""

    qname: str
    effect: str | None
    reason: str

    def render(self) -> str:
        detail = f" [{self.effect}]" if self.effect is not None else ""
        return f"{self.qname}{detail}: {self.reason}"


def _installed_program() -> "Program":
    """Static :class:`Program` of the installed ``repro`` tree
    (memoized — shared by the effect and race predictions)."""
    global _PROGRAM_MEMO
    if _PROGRAM_MEMO is None:
        from repro.analysis.callgraph import Program
        from repro.analysis.runner import discover_files

        _PROGRAM_MEMO = Program.from_paths(discover_files([_REPRO_ROOT]))
    return _PROGRAM_MEMO


def static_summaries() -> "dict[str, EffectSummary]":
    """Effect summaries of the installed ``repro`` tree (memoized)."""
    global _STATIC_MEMO
    if _STATIC_MEMO is None:
        from repro.analysis.dataflow import infer_effects

        _STATIC_MEMO = infer_effects(_installed_program())
    return _STATIC_MEMO


_PROGRAM_MEMO: "Program | None" = None
_STATIC_MEMO: "dict[str, EffectSummary] | None" = None


def check_trace(
    trace: EffectTrace,
    summaries: "dict[str, EffectSummary] | None" = None,
) -> list[Gap]:
    """Every observed ``(frame, effect)`` must be statically predicted.

    Returns the list of gaps (empty when the static model covers the
    runtime behavior).  A repro frame the static model does not know at
    all is itself a gap: it means the symbol table missed a function
    that demonstrably runs.
    """
    model = static_summaries() if summaries is None else summaries
    gaps: list[Gap] = []
    for qname, effects in sorted(trace.observed().items()):
        summary = model.get(qname)
        if summary is None:
            gaps.append(
                Gap(
                    qname=qname,
                    effect=None,
                    reason="frame missing from the static model",
                )
            )
            continue
        for effect in sorted(effects - summary.transitive):
            gaps.append(
                Gap(
                    qname=qname,
                    effect=effect,
                    reason="observed effect not statically predicted",
                )
            )
    return gaps


# ----------------------------------------------------------------------
# Runtime race tracer — the dynamic twin of RL9-RL11
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class RaceEvent:
    """One concurrency-relevant runtime observation.

    ``kind`` is ``"mutation"`` (a journaled design primitive fired,
    annotated with the transaction depth and ``threading`` lock count
    of the current thread) or ``"await-in-transaction"`` (an open
    :class:`~repro.db.journal.Transaction` suspended back to the event
    loop before its ``__exit__`` — detected by a ``call_soon`` probe,
    which can only run if the transaction body awaited)."""

    kind: str
    primitive: str
    frames: tuple[str, ...]
    txn_depth: int
    locks: int


@dataclass(slots=True)
class RaceTrace:
    """Race-event log of one traced region."""

    events: list[RaceEvent] = field(default_factory=list)

    def by_kind(self, kind: str) -> list[RaceEvent]:
        return [e for e in self.events if e.kind == kind]


class _RaceTLS(threading.local):
    """Per-thread transaction depth, held-lock count, probe stack."""

    def __init__(self) -> None:
        self.txn_depth = 0
        self.locks = 0
        #: One entry per open transaction on this thread:
        #: ``(probe_cell | None, opener_frames)``.
        self.probes: list[
            tuple["list[bool] | None", tuple[str, ...]]
        ] = []


_RACE_TLS = _RaceTLS()
_RACE_TRACES: list[RaceTrace] = []
#: ``(owner, attribute, original)`` in patch order; restored in reverse.
_RACE_RESTORE: list[tuple[Any, str, Any]] = []


def _record_race(
    kind: str, primitive: str, frames: "tuple[str, ...] | None" = None
) -> None:
    if not _RACE_TRACES:
        return
    event = RaceEvent(
        kind=kind,
        primitive=primitive,
        frames=_frame_qnames() if frames is None else frames,
        txn_depth=_RACE_TLS.txn_depth,
        locks=_RACE_TLS.locks,
    )
    for trace in _RACE_TRACES:
        trace.events.append(event)


class _TracedLock:
    """Counting proxy around a real ``threading`` lock.

    Only the held-count side effect is added; all blocking semantics
    are the wrapped lock's.  ``Condition`` copes with the missing
    ``_release_save``/``_is_owned`` internals via its documented
    fallbacks, so ``threading.Event`` and friends keep working while
    the factories are patched."""

    __slots__ = ("_inner",)

    def __init__(self, inner: Any) -> None:
        self._inner = inner

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        got = self._inner.acquire(blocking, timeout)
        if got:
            _RACE_TLS.locks += 1
        return got

    def release(self) -> None:
        self._inner.release()
        _RACE_TLS.locks -= 1

    def locked(self) -> bool:
        return self._inner.locked()

    def __getattr__(self, name: str) -> Any:
        # Everything else (``_at_fork_reinit``, ``_is_owned``,
        # ``_release_save``...) is the wrapped lock's business.  The
        # save/restore pair used by ``Condition.wait`` bypasses the
        # counter symmetrically, and a thread blocked in ``wait``
        # records no events, so the count stays honest.
        return getattr(self._inner, name)

    def __enter__(self) -> "_TracedLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()


def _race_patch() -> None:
    from repro.db.design import Design
    from repro.db.journal import Transaction

    for method in ("place", "unplace", "shift_x", "add_cell"):
        original = getattr(Design, method)
        _RACE_RESTORE.append((Design, method, original))

        def wrapper(
            *args: Any, _orig: Any = original, _name: str = method,
            **kwargs: Any,
        ) -> Any:
            _record_race("mutation", f"Design.{_name}")
            return _orig(*args, **kwargs)

        wrapper.__name__ = method
        wrapper.__qualname__ = original.__qualname__
        setattr(Design, method, wrapper)

    txn_enter = Transaction.__enter__
    txn_exit = Transaction.__exit__
    _RACE_RESTORE.append((Transaction, "__enter__", txn_enter))
    _RACE_RESTORE.append((Transaction, "__exit__", txn_exit))

    def enter_wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
        frames = _frame_qnames()
        probe: "list[bool] | None" = None
        try:
            loop = asyncio.get_running_loop()
        except RuntimeError:
            pass  # sync context: a transaction here cannot await
        else:
            probe = [False]
            loop.call_soon(probe.__setitem__, 0, True)
        _RACE_TLS.txn_depth += 1
        _RACE_TLS.probes.append((probe, frames))
        return txn_enter(self, *args, **kwargs)

    def exit_wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
        try:
            return txn_exit(self, *args, **kwargs)
        finally:
            if _RACE_TLS.probes:
                probe, frames = _RACE_TLS.probes.pop()
                _RACE_TLS.txn_depth -= 1
                if probe is not None and probe[0]:
                    _record_race(
                        "await-in-transaction",
                        "Transaction",
                        frames=frames,
                    )

    enter_wrapper.__qualname__ = txn_enter.__qualname__
    exit_wrapper.__qualname__ = txn_exit.__qualname__
    Transaction.__enter__ = enter_wrapper  # type: ignore[method-assign]
    Transaction.__exit__ = exit_wrapper  # type: ignore[method-assign]

    real_lock = threading.Lock
    real_rlock = threading.RLock
    _RACE_RESTORE.append((threading, "Lock", real_lock))
    _RACE_RESTORE.append((threading, "RLock", real_rlock))
    threading.Lock = lambda: _TracedLock(real_lock())  # type: ignore
    threading.RLock = lambda: _TracedLock(real_rlock())  # type: ignore


def _race_unpatch() -> None:
    for owner, attribute, original in reversed(_RACE_RESTORE):
        setattr(owner, attribute, original)
    _RACE_RESTORE.clear()


class RaceTracer:
    """Context manager: record race-relevant events within the block.

    Layers over :class:`Sanitizer` on the same primitives, so nesting
    must be LIFO — arm the tracer *inside* the sanitizer block (``with
    Sanitizer() as t, RaceTracer() as r:``) so each restores the layer
    it wrapped.  Locks created before arming are not traced; locks
    created while armed keep working (as plain pass-throughs) after
    disarming."""

    def __init__(self) -> None:
        self.trace = RaceTrace()

    def __enter__(self) -> RaceTrace:
        if not _RACE_TRACES:
            _race_patch()
        _RACE_TRACES.append(self.trace)
        return self.trace

    def __exit__(self, *exc_info: object) -> None:
        for index, trace in enumerate(_RACE_TRACES):
            if trace is self.trace:
                del _RACE_TRACES[index]
                break
        if not _RACE_TRACES:
            _race_unpatch()


@dataclass(frozen=True, slots=True)
class RacePredictions:
    """The static concurrency regions runtime events must land in."""

    await_txn_frames: frozenset[str]
    """RL9's await-in-transaction region: frames that can suspend
    while a transaction is (possibly transitively) open."""

    txn_opener_frames: frozenset[str]
    """Frames containing at least one call site lexically inside a
    ``with Transaction(...)`` block."""

    lock_scope_frames: frozenset[str]
    """RL11's lock-scope region: frames that hold (lexically or by
    entry lockset) a ``threading`` lock, plus their callees."""


_RACE_MEMO: "RacePredictions | None" = None


def race_predictions() -> RacePredictions:
    """Static concurrency predictions for the installed tree
    (memoized; shares the :func:`_installed_program` parse)."""
    global _RACE_MEMO
    if _RACE_MEMO is None:
        from repro.analysis.concurrency import model_for

        program = _installed_program()
        model = model_for(program)
        openers = frozenset(
            site.caller
            for site in program.graph.sites
            if site.in_transaction
        )
        _RACE_MEMO = RacePredictions(
            await_txn_frames=model.await_in_transaction_region(),
            txn_opener_frames=openers,
            lock_scope_frames=model.lock_scope_region(),
        )
    return _RACE_MEMO


def check_race_trace(
    trace: RaceTrace,
    predictions: "RacePredictions | None" = None,
) -> list[Gap]:
    """Runtime race observations must be ⊆ the static predictions.

    Three containments, one per event shape:

    * an ``await-in-transaction`` event must have a frame inside the
      statically computed RL9 region;
    * a mutation with ``txn_depth > 0`` must have a statically known
      transaction-opening frame on its stack;
    * a mutation with ``locks > 0`` must have a frame inside the
      statically known lock-scope region.

    Events whose repro-owned frame tuple is empty (driven directly
    from non-repro code, e.g. a test body) cannot satisfy any
    containment and are reported — that asymmetry is what the positive
    detector tests lean on."""
    model = race_predictions() if predictions is None else predictions
    gaps: list[Gap] = []
    seen: set[tuple[str, str]] = set()

    def add(qname: str, reason: str) -> None:
        if (qname, reason) not in seen:
            seen.add((qname, reason))
            gaps.append(Gap(qname=qname, effect=None, reason=reason))

    for event in trace.events:
        frames = set(event.frames)
        anchor = event.frames[0] if event.frames else "<non-repro>"
        if event.kind == "await-in-transaction":
            if not frames & model.await_txn_frames:
                add(
                    anchor,
                    "transaction suspended (awaited) outside every "
                    "statically predicted RL9 frame",
                )
        elif event.kind == "mutation":
            if event.txn_depth > 0 and not (
                frames & model.txn_opener_frames
            ):
                add(
                    anchor,
                    f"{event.primitive} ran under an open Transaction "
                    "with no statically known transaction-opening "
                    "frame on the stack",
                )
            if event.locks > 0 and not (
                frames & model.lock_scope_frames
            ):
                add(
                    anchor,
                    f"{event.primitive} ran under a held threading "
                    "lock outside every statically known lock scope",
                )
    return gaps


# ----------------------------------------------------------------------
# Runtime resource tracer — the dynamic twin of RL13
# ----------------------------------------------------------------------
@dataclass(slots=True)
class ResourceRecord:
    """One traced acquisition (socket, file handle, or lock).

    The registry holds a *strong* reference to the resource so the
    leak check sees the object's true end-of-trace state — a handle
    dropped without ``close()`` must show up as a leak, not get
    silently closed by the garbage collector first."""

    kind: str
    """``"socket"`` / ``"file"`` / ``"lock"``."""

    detail: str
    """The acquiring primitive (``socket.socket``, ``open(...)``...)."""

    frames: tuple[str, ...]
    """Repro-owned frames on the stack at acquisition, innermost
    first — empty when non-repro code (a test body, stdlib internals)
    acquired the resource."""

    obj: Any = field(default=None, repr=False)

    balance: int = 0
    """Lock acquire/release balance (locks only)."""

    def leaked(self) -> bool:
        """Is the resource still unreleased?"""
        if self.kind == "lock":
            return self.balance > 0
        if self.kind == "socket":
            return bool(self.obj.fileno() != -1)
        return not bool(self.obj.closed)


@dataclass(slots=True)
class ResourceTrace:
    """Acquisition log of one traced region."""

    records: list[ResourceRecord] = field(default_factory=list)

    def leaks(self) -> list[ResourceRecord]:
        """Records still unreleased (attributable or not)."""
        return [r for r in self.records if r.leaked()]


_RESOURCE_TRACES: list[ResourceTrace] = []
_RESOURCE_RESTORE: list[tuple[Any, str, Any]] = []


def _record_resource(kind: str, detail: str, obj: Any) -> ResourceRecord:
    record = ResourceRecord(
        kind=kind, detail=detail, frames=_frame_qnames(), obj=obj
    )
    for trace in _RESOURCE_TRACES:
        trace.records.append(record)
    return record


class _CountedLock:
    """Balance-counting proxy around a real ``threading`` lock.

    Same pass-through contract as :class:`_TracedLock` (and chains
    over it when both tracers are armed): only the per-record balance
    side effect is added, so a lock whose final balance is positive at
    trace end was acquired and never released."""

    __slots__ = ("_inner", "_rec")

    def __init__(self, inner: Any, record: ResourceRecord) -> None:
        self._inner = inner
        self._rec = record

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        got = self._inner.acquire(blocking, timeout)
        if got:
            self._rec.balance += 1
        return got

    def release(self) -> None:
        self._inner.release()
        self._rec.balance -= 1

    def locked(self) -> bool:
        return bool(self._inner.locked())

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)

    def __enter__(self) -> "_CountedLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()


def _resource_patch() -> None:
    real_socket = socket.socket
    _RESOURCE_RESTORE.append((socket, "socket", real_socket))

    class TracedSocket(real_socket):  # type: ignore[misc, valid-type]
        """Recording subclass; ``create_connection``/``create_server``/
        ``socketpair``/``accept`` all construct through the module
        global, so every socket born while armed lands here."""

        def __init__(self, *args: Any, **kwargs: Any) -> None:
            super().__init__(*args, **kwargs)
            _record_resource("socket", "socket.socket", self)

        def makefile(self, *args: Any, **kwargs: Any) -> Any:
            handle = super().makefile(*args, **kwargs)
            _record_resource("file", "socket.makefile", handle)
            return handle

    socket.socket = TracedSocket  # type: ignore[misc]

    real_open = builtins.open
    _RESOURCE_RESTORE.append((builtins, "open", real_open))

    def traced_open(*args: Any, **kwargs: Any) -> Any:
        handle = real_open(*args, **kwargs)
        _record_resource(
            "file", f"open({getattr(handle, 'name', '?')!r})", handle
        )
        return handle

    builtins.open = traced_open  # type: ignore[assignment]

    real_lock = threading.Lock
    real_rlock = threading.RLock
    _RESOURCE_RESTORE.append((threading, "Lock", real_lock))
    _RESOURCE_RESTORE.append((threading, "RLock", real_rlock))

    def make_lock() -> Any:
        record = _record_resource("lock", "threading.Lock", None)
        proxy = _CountedLock(real_lock(), record)
        record.obj = proxy
        return proxy

    def make_rlock() -> Any:
        record = _record_resource("lock", "threading.RLock", None)
        proxy = _CountedLock(real_rlock(), record)
        record.obj = proxy
        return proxy

    threading.Lock = make_lock  # type: ignore[assignment]
    threading.RLock = make_rlock  # type: ignore[assignment]


def _resource_unpatch() -> None:
    for owner, attribute, original in reversed(_RESOURCE_RESTORE):
        setattr(owner, attribute, original)
    _RESOURCE_RESTORE.clear()


class ResourceTracer:
    """Context manager: record resource acquisitions within the block.

    Layers over :class:`RaceTracer` (both patch the lock factories),
    so arming must be LIFO — ``with Sanitizer() as t, RaceTracer() as
    r, ResourceTracer() as res:`` — each tracer then restores exactly
    the layer it wrapped.  Resources acquired before arming are not
    traced; proxies created while armed keep working after disarm."""

    def __init__(self) -> None:
        self.trace = ResourceTrace()

    def __enter__(self) -> ResourceTrace:
        if not _RESOURCE_TRACES:
            _resource_patch()
        _RESOURCE_TRACES.append(self.trace)
        return self.trace

    def __exit__(self, *exc_info: object) -> None:
        for index, trace in enumerate(_RESOURCE_TRACES):
            if trace is self.trace:
                del _RESOURCE_TRACES[index]
                break
        if not _RESOURCE_TRACES:
            _resource_unpatch()


_RESOURCE_MEMO: "frozenset[str] | None" = None


def _function_spans(
    program: "Program",
) -> dict[str, list[tuple[int, int, str]]]:
    """path → ``(first_line, last_line, qname)`` for every function."""
    spans: dict[str, list[tuple[int, int, str]]] = {}
    for qname, info in sorted(program.table.functions.items()):
        end = getattr(info.node, "end_lineno", None) or info.lineno
        spans.setdefault(info.path, []).append((info.lineno, end, qname))
    return spans


def _qname_at(
    spans: dict[str, list[tuple[int, int, str]]], path: str, line: int
) -> "str | None":
    """Innermost function containing ``path:line`` (None at toplevel)."""
    best: "tuple[int, str] | None" = None
    for start, end, qname in spans.get(path, ()):
        if start <= line <= end and (best is None or start > best[0]):
            best = (start, qname)
    return None if best is None else best[1]


def resource_predictions() -> frozenset[str]:
    """Function qnames where RL13 statically reports a possible leak
    in the installed tree (memoized).

    The rule is invoked directly — *below* the suppression filter — so
    a site silenced by a justified ``repro-lint: disable=RL13`` still
    counts as statically known: a runtime leak there is an accepted
    risk, not a hole in the model."""
    global _RESOURCE_MEMO
    if _RESOURCE_MEMO is None:
        from repro.analysis.registry import select_program_rules

        program = _installed_program()
        spans = _function_spans(program)
        flagged: set[str] = set()
        for rule in select_program_rules(select=["RL13"]):
            for diag in rule.check_program(program):
                qname = _qname_at(spans, diag.path, diag.line)
                if qname is not None:
                    flagged.add(qname)
        _RESOURCE_MEMO = frozenset(flagged)
    return _RESOURCE_MEMO


def check_resource_trace(
    trace: ResourceTrace,
    predicted: "frozenset[str] | None" = None,
) -> list[Gap]:
    """Runtime leaks must be ⊆ the static RL13 findings.

    Every resource acquired by repro code and still unreleased at
    trace end must originate in a function RL13 already flags
    (including explicitly suppressed findings).  Acquisitions with no
    repro-owned frame (a test body, stdlib internals) cannot be
    attributed and are skipped — :meth:`ResourceTrace.leaks` still
    lists them for inspection."""
    model = resource_predictions() if predicted is None else predicted
    gaps: list[Gap] = []
    seen: set[tuple[str, str]] = set()
    for record in trace.leaks():
        if not record.frames:
            continue
        if set(record.frames) & model:
            continue
        key = (record.frames[0], record.detail)
        if key in seen:
            continue
        seen.add(key)
        gaps.append(
            Gap(
                qname=record.frames[0],
                effect=None,
                reason=(
                    f"{record.kind} acquired via {record.detail} was "
                    "never released and no stack frame is a "
                    "statically known RL13 leak site"
                ),
            )
        )
    return gaps


# ----------------------------------------------------------------------
# Runtime taint probe — the dynamic twin of RL12
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class TaintEvent:
    """One sanitizer hit or sink activation.

    ``kind`` is ``"sanitizer"`` (a typed wire extractor ran — the
    functions RL12 credits with cleaning wire input) or ``"sink"`` (a
    config constructor was called with arguments, or a filesystem
    write primitive fired)."""

    kind: str
    detail: str
    thread: int
    frames: tuple[str, ...]


@dataclass(slots=True)
class TaintTrace:
    """Chronological sanitizer/sink log of one probed region."""

    events: list[TaintEvent] = field(default_factory=list)

    def by_kind(self, kind: str) -> list[TaintEvent]:
        return [e for e in self.events if e.kind == kind]


_TAINT_TRACES: list[TaintTrace] = []
_TAINT_RESTORE: list[tuple[Any, str, Any]] = []

#: The wire extractors RL12 treats as sanitizers, by defining module.
#: Consumers import them by name, so the probe rebinds the wrapper at
#: every repro module that holds a reference (see ``_taint_rebind``).
_TAINT_SANITIZERS: dict[str, tuple[str, ...]] = {
    "repro.engine.wire": ("message_float", "message_int", "message_str"),
    "repro.serve.protocol": (
        "param_bool",
        "param_float",
        "param_int",
        "param_opt_int",
        "param_str",
    ),
}

#: The config constructors RL12 treats as config sinks.
_TAINT_CONFIG_SINKS: tuple[tuple[str, str], ...] = (
    ("repro.bench.generator", "GeneratorConfig"),
    ("repro.core.config", "LegalizerConfig"),
    ("repro.engine.config", "EngineConfig"),
)


def _record_taint(kind: str, detail: str) -> None:
    if not _TAINT_TRACES:
        return
    event = TaintEvent(
        kind=kind,
        detail=detail,
        thread=threading.get_ident(),
        frames=_frame_qnames(),
    )
    for trace in _TAINT_TRACES:
        trace.events.append(event)


def _taint_rebind(original: Any, replacement: Any) -> None:
    """Swap *original* for *replacement* at every ``repro`` module
    attribute that references it (``from x import name`` consumers
    hold their own binding, so patching the defining module alone
    would miss them)."""
    for module_name in sorted(sys.modules):
        if module_name != "repro" and not module_name.startswith(
            "repro."
        ):
            continue
        module = sys.modules[module_name]
        for attr in sorted(dir(module)):
            if getattr(module, attr, None) is original:
                _TAINT_RESTORE.append((module, attr, original))
                setattr(module, attr, replacement)


def _taint_patch() -> None:
    for module_name, names in sorted(_TAINT_SANITIZERS.items()):
        module = importlib.import_module(module_name)
        for name in names:
            original = getattr(module, name)

            def wrapper(
                *args: Any,
                _orig: Any = original,
                _name: str = name,
                **kwargs: Any,
            ) -> Any:
                _record_taint("sanitizer", _name)
                return _orig(*args, **kwargs)

            wrapper.__name__ = name
            wrapper.__qualname__ = original.__qualname__
            _taint_rebind(original, wrapper)

    for module_name, cls_name in _TAINT_CONFIG_SINKS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        original_init = cls.__init__
        _TAINT_RESTORE.append((cls, "__init__", original_init))

        def init_wrapper(
            self: Any,
            *args: Any,
            _orig: Any = original_init,
            _detail: str = cls_name,
            **kwargs: Any,
        ) -> None:
            # A bare default construction carries no wire data — only
            # argument-passing calls are sinks, mirroring RL12 (which
            # fires when a tainted *value* reaches a constructor).
            if args or kwargs:
                _record_taint("sink", f"config {_detail}")
            _orig(self, *args, **kwargs)

        init_wrapper.__qualname__ = original_init.__qualname__
        cls.__init__ = init_wrapper

    real_open = builtins.open
    _TAINT_RESTORE.append((builtins, "open", real_open))

    def open_sink(
        file: Any, mode: str = "r", *args: Any, **kwargs: Any
    ) -> Any:
        if any(flag in str(mode) for flag in ("w", "a", "x", "+")):
            _record_taint("sink", f"filesystem open[{mode}]")
        return real_open(file, mode, *args, **kwargs)

    builtins.open = open_sink  # type: ignore[assignment]

    real_makedirs = os.makedirs
    _TAINT_RESTORE.append((os, "makedirs", real_makedirs))

    def makedirs_sink(*args: Any, **kwargs: Any) -> Any:
        _record_taint("sink", "filesystem os.makedirs")
        return real_makedirs(*args, **kwargs)

    os.makedirs = makedirs_sink  # type: ignore[assignment]


def _taint_unpatch() -> None:
    for owner, attribute, original in reversed(_TAINT_RESTORE):
        setattr(owner, attribute, original)
    _TAINT_RESTORE.clear()


class TaintProbe:
    """Context manager: record sanitizer hits and sink activations.

    Chains over :class:`ResourceTracer` on ``builtins.open`` exactly
    like the lock factories chain, so arming stays LIFO."""

    def __init__(self) -> None:
        self.trace = TaintTrace()

    def __enter__(self) -> TaintTrace:
        if not _TAINT_TRACES:
            _taint_patch()
        _TAINT_TRACES.append(self.trace)
        return self.trace

    def __exit__(self, *exc_info: object) -> None:
        for index, trace in enumerate(_TAINT_TRACES):
            if trace is self.trace:
                del _TAINT_TRACES[index]
                break
        if not _TAINT_TRACES:
            _taint_unpatch()


def check_taint_trace(trace: TaintTrace) -> list[Gap]:
    """Every serve-stack sink must be downstream of a wire sanitizer.

    Mirrors RL12's contract at runtime: a filesystem/config sink
    reached while handling wire input is only acceptable after at
    least one typed extractor ran — on the same worker thread, sharing
    a ``repro.serve`` frame with the sink, so a hit in one stack shape
    cannot excuse a sink in an unrelated one.  Sinks with no
    ``repro.serve`` frame (the bench driver, engine internals) are
    outside the wire trust boundary and exempt."""
    gaps: list[Gap] = []
    hits: dict[int, set[str]] = {}
    seen: set[tuple[str, str]] = set()
    for event in trace.events:
        serve_frames = {
            frame
            for frame in event.frames
            if frame.startswith("repro.serve.")
        }
        if event.kind == "sanitizer":
            if serve_frames:
                hits.setdefault(event.thread, set()).update(serve_frames)
            continue
        if not serve_frames:
            continue
        if serve_frames & hits.get(event.thread, set()):
            continue
        anchor = next(
            frame
            for frame in event.frames
            if frame.startswith("repro.serve.")
        )
        key = (anchor, event.detail)
        if key in seen:
            continue
        seen.add(key)
        gaps.append(
            Gap(
                qname=anchor,
                effect=None,
                reason=(
                    f"{event.detail} sink ran in the serve stack "
                    "with no wire sanitizer upstream on this thread"
                ),
            )
        )
    return gaps


# ----------------------------------------------------------------------
# ``python -m repro.testing.sanitizer`` — CI differential smoke
# ----------------------------------------------------------------------
def _differential_run(
    num_cells: int, seed: int, workers: int
) -> tuple[str, str, list[Gap], int]:
    """(digest sanitized, digest bare, gaps, events) for one config."""
    from repro.bench import GeneratorConfig, generate_design
    from repro.core import LegalizerConfig
    from repro.engine import EngineConfig, legalize_sharded
    from repro.testing.faults import design_state_digest

    gen = GeneratorConfig(num_cells=num_cells, target_density=0.5, seed=seed)
    cfg = LegalizerConfig(seed=1)
    eng = EngineConfig(workers=workers, shards=2, serial_threshold=0)

    bare = generate_design(gen)
    legalize_sharded(bare, cfg, eng)
    bare_digest = design_state_digest(bare)

    sanitized = generate_design(gen)
    with (
        Sanitizer() as trace,
        RaceTracer() as race,
        ResourceTracer() as resources,
    ):
        legalize_sharded(sanitized, cfg, eng)
    sanitized_digest = design_state_digest(sanitized)
    gaps = (
        check_trace(trace)
        + check_race_trace(race)
        + check_resource_trace(resources)
    )
    return sanitized_digest, bare_digest, gaps, len(trace.events)


def _serve_load_run(
    num_cells: int,
    seed: int,
    clients: int = 3,
    ecos_per_client: int = 4,
) -> tuple[str, list[Gap], int, int, int, int]:
    """Live-server load under all four tracers.

    Boots a real :class:`~repro.serve.client.ServerHandle`, generates
    and legalizes one design, then hammers it with concurrent
    *conflicting* move-ECOs from one client per thread — the per-design
    FIFO worker serializes them, and every journaled mutation, every
    lock/transaction interaction, every socket/file/lock acquisition,
    and every extractor/sink pairing the serve stack performs is
    checked against the static model.  Returns ``(digest, gaps,
    effect_events, race_events, resource_records, taint_events)``;
    admission rejections and fault-budget quarantines surface as
    :class:`RequestFailed` and are tolerated (the load is adversarial
    by design)."""
    from repro.serve.client import RequestFailed, ServerHandle
    from repro.serve.server import ServeConfig

    config = ServeConfig(max_inflight=2, fault_budget=1_000_000)
    session = "chipA"
    with (
        Sanitizer() as trace,
        RaceTracer() as race,
        ResourceTracer() as resources,
        TaintProbe() as taint,
    ):
        with ServerHandle(config) as handle:
            with handle.client() as boot:
                boot.result(
                    "generate", session,
                    {"cells": num_cells, "seed": seed},
                )
                boot.result("legalize", session, {})

                errors: list[str] = []

                def hammer(index: int) -> None:
                    with handle.client() as client:
                        for k in range(ecos_per_client):
                            params = {
                                "kind": "move",
                                "cell": "c1",
                                "x": 3.0 + float((index + k) % 2),
                                "y": 1.0,
                            }
                            try:
                                client.result("eco", session, params)
                            except RequestFailed as exc:
                                errors.append(str(exc))

                threads = [
                    threading.Thread(
                        target=hammer, args=(i,), name=f"eco-load-{i}"
                    )
                    for i in range(clients)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                digest = str(boot.result("digest", session)["digest"])
    gaps = (
        check_trace(trace)
        + check_race_trace(race)
        + check_resource_trace(resources)
        + check_taint_trace(taint)
    )
    return (
        digest,
        gaps,
        len(trace.events),
        len(race.events),
        len(resources.records),
        len(taint.events),
    )


def run(argv: Sequence[str] | None = None) -> int:
    """Differential smoke: serial + workers=N, gaps and digests."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.testing.sanitizer",
        description=(
            "differential sanitizer smoke: legalize with and without "
            "instrumentation, assert byte-identical placements and "
            "zero statically-unpredicted effects"
        ),
    )
    parser.add_argument("--cells", type=int, default=300)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--workers", type=int, default=2,
        help="parallel arm worker count (serial arm always runs too)",
    )
    parser.add_argument(
        "--serve-load", action="store_true",
        help=(
            "additionally boot a live server and hammer one session "
            "with concurrent conflicting ECOs under the race tracer"
        ),
    )
    args = parser.parse_args(argv)

    os.environ[ENV_FLAG] = "1"  # arm run_shard's worker-side tracing
    failed = False
    for workers in (1, args.workers):
        san_digest, bare_digest, gaps, events = _differential_run(
            args.cells, args.seed, workers
        )
        label = f"workers={workers}"
        if san_digest != bare_digest:
            print(
                f"sanitizer[{label}]: FAIL placement digest diverged "
                f"({san_digest[:12]} != {bare_digest[:12]})"
            )
            failed = True
        if gaps:
            print(
                f"sanitizer[{label}]: FAIL {len(gaps)} "
                "statically-unpredicted effect(s):"
            )
            for gap in gaps:
                print(f"  {gap.render()}")
            failed = True
        if san_digest == bare_digest and not gaps:
            print(
                f"sanitizer[{label}]: OK {events} event(s), "
                f"digest {san_digest[:12]}, zero gaps"
            )
    if args.serve_load:
        digest, gaps, events, race_events, resources, taint = (
            _serve_load_run(min(args.cells, 120), args.seed)
        )
        if gaps:
            print(
                f"sanitizer[serve-load]: FAIL {len(gaps)} "
                "statically-unpredicted observation(s):"
            )
            for gap in gaps:
                print(f"  {gap.render()}")
            failed = True
        else:
            print(
                f"sanitizer[serve-load]: OK {events} effect event(s), "
                f"{race_events} race event(s), {resources} resource "
                f"record(s), {taint} taint event(s), digest "
                f"{digest[:12]}, zero gaps"
            )
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover - CLI shell
    sys.exit(run())
