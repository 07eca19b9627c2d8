"""Fault injection for the transactional mutation layer.

The journal (:mod:`repro.db.journal`) records every primitive design
mutation — each record is a *mutation site* at which a crash could
strike.  This harness turns those sites into a systematic test: arm a
design with a :class:`FaultInjector`, run any flow (``try_place``, an
app primitive, a whole engine reconcile), and the injector raises
:class:`InjectedFault` at the chosen site, *after* the mutation has been
applied and journaled — the worst possible moment.  The enclosing
transaction must then restore the design to a byte-identical pre-call
state, which :func:`design_state` / :func:`design_state_digest` make
checkable.

:func:`fault_sweep` automates the full protocol: count the sites of a
flow on a fresh design, then re-run the flow once per site with the
fault armed there, asserting state restoration each time.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import operator
import os
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.db.design import Design
from repro.db.journal import JournalEntry


class InjectedFault(RuntimeError):
    """A deliberately injected crash at a journaled mutation site."""

    def __init__(self, site: str, index: int) -> None:
        super().__init__(
            f"injected fault at mutation #{index} (site {site!r})"
        )
        self.site = site
        self.index = index


class FaultInjector:
    """Arm a design to raise at its ``trip_at``-th journaled mutation.

    Used as a context manager::

        with FaultInjector(design, trip_at=3) as inj:
            with pytest.raises(InjectedFault):
                mll.try_place(target, x, y)
        assert inj.tripped_site is not None

    ``trip_at=None`` never trips — the injector then just counts
    mutations (``seen``), which :func:`count_journaled_mutations` uses to
    size a sweep.  The hook attaches via ``design.journal_hook`` and is
    picked up by every :class:`~repro.db.journal.Transaction` opened
    while armed; rollbacks do not fire it, so undo operations are never
    counted or tripped.
    """

    def __init__(self, design: Design, trip_at: int | None) -> None:
        self.design = design
        self.trip_at = trip_at
        self.seen = 0
        self.tripped_site: str | None = None
        self.sites: list[str] = []

    # ------------------------------------------------------------------
    def _hook(self, entry: JournalEntry) -> None:
        self.seen += 1
        self.sites.append(entry.site)
        if self.trip_at is not None and self.seen == self.trip_at:
            self.tripped_site = entry.site
            raise InjectedFault(entry.site, self.seen)

    def __enter__(self) -> "FaultInjector":
        if self.design.journal_hook is not None:
            raise RuntimeError("design already has a journal hook armed")
        self.design.journal_hook = self._hook
        # A transaction may already be open (nested use): attach to the
        # live journal too.
        if self.design.journal is not None:
            self.design.journal.on_record = self._hook
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.design.journal_hook = None
        if self.design.journal is not None:
            self.design.journal.on_record = None
        return False


def count_journaled_mutations(
    design: Design, action: Callable[[], object]
) -> int:
    """Run *action* once, counting its journaled mutation sites.

    The action executes for real (mutations commit); run it on a
    scratch design you can discard or rebuild.
    """
    with FaultInjector(design, trip_at=None) as counter:
        action()
    return counter.seen


# ----------------------------------------------------------------------
# Worker-process fault modes (the engine supervisor's chaos monkey)
# ----------------------------------------------------------------------
#: Environment variable read by :func:`worker_fault_from_env`.
WORKER_FAULT_ENV = "REPRO_WORKER_FAULT"


class WorkerFault(RuntimeError):
    """Raised by the ``raise`` fault mode inside a shard attempt."""

    def __init__(self, shard_id: int, attempt: int) -> None:
        super().__init__(
            f"injected worker fault in shard {shard_id} (attempt {attempt})"
        )
        self.shard_id = shard_id
        self.attempt = attempt


@dataclass(frozen=True, slots=True)
class ShardFaultSpec:
    """A deliberate worker failure, armed per shard and per attempt.

    Where :class:`FaultInjector` crashes *mutations* to test the
    journal, this spec crashes *workers* to test the engine supervisor
    (:mod:`repro.engine.supervisor`).  It travels inside the pickled
    :class:`~repro.engine.shard_worker.ShardTask`, so it fires in the
    worker process itself — the supervisor sees exactly what a real
    OOM kill / hang / bug would produce.

    Modes:

    ``crash``
        ``os._exit(exitcode)`` — the process vanishes without a result,
        like an OOM kill.  Fires only inside a worker process (it would
        take the test runner down otherwise).
    ``hang``
        ``time.sleep(sleep_s)`` — simulates a wedged worker so the
        per-shard timeout can be exercised.  Worker-process only.
    ``raise``
        raise :class:`WorkerFault` — an unexpected exception in the
        shard flow.  Fires in *any* process (including the in-process
        escalation rung), which is how tests drive the supervisor all
        the way down to the whole-design serial fallback.

    ``attempts`` bounds the blast radius: the fault fires while the
    task's attempt number is ``<= attempts``, so ``attempts=1`` means
    "fail once, then recover" — the retry must then produce a result
    byte-identical to a fault-free run (same derived shard seed).
    """

    shard_id: int
    mode: str = "crash"
    attempts: int = 1
    sleep_s: float = 30.0
    exitcode: int = 13

    def __post_init__(self) -> None:
        if self.mode not in ("crash", "hang", "raise"):
            raise ValueError(f"unknown worker fault mode {self.mode!r}")
        if self.attempts < 0:
            raise ValueError("attempts must be >= 0")

    # ------------------------------------------------------------------
    def armed_for(self, shard_id: int, attempt: int) -> bool:
        """Does this fault fire for *shard_id*'s *attempt*-th try?"""
        return shard_id == self.shard_id and attempt <= self.attempts

    def trip(self, shard_id: int, attempt: int) -> None:
        """Fire the fault (call only when :meth:`armed_for` is true).

        ``crash`` and ``hang`` are no-ops outside a worker process:
        both would otherwise destroy (or stall) the supervising process
        the tests run in.  ``raise`` always fires — the in-process
        escalation rung must be crashable too.
        """
        in_worker = multiprocessing.parent_process() is not None
        if self.mode == "crash":
            if in_worker:
                os._exit(self.exitcode)
        elif self.mode == "hang":
            if in_worker:
                time.sleep(self.sleep_s)
        else:  # raise
            raise WorkerFault(shard_id, attempt)


def worker_fault_from_env(env: str | None = None) -> ShardFaultSpec | None:
    """Parse a :class:`ShardFaultSpec` from ``REPRO_WORKER_FAULT``.

    Format: ``mode,shard=ID[,attempts=N][,sleep=S][,exitcode=E]``, e.g.
    ``crash,shard=0,attempts=1``.  Lets the CLI / CI chaos smoke inject
    worker kills into a real ``repro legalize --workers N`` run without
    any code hook.  Returns ``None`` when the variable is unset/empty;
    raises :class:`ValueError` on a malformed value (a chaos experiment
    that silently does not run is worse than one that fails loudly).
    """
    raw = os.environ.get(WORKER_FAULT_ENV, "") if env is None else env
    raw = raw.strip()
    if not raw:
        return None
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    mode = parts[0]
    kwargs: dict[str, float | int] = {}
    for part in parts[1:]:
        key, _, value = part.partition("=")
        if key == "shard":
            kwargs["shard_id"] = int(value)
        elif key == "attempts":
            kwargs["attempts"] = int(value)
        elif key == "sleep":
            kwargs["sleep_s"] = float(value)
        elif key == "exitcode":
            kwargs["exitcode"] = int(value)
        else:
            raise ValueError(
                f"unknown {WORKER_FAULT_ENV} key {key!r} in {raw!r}"
            )
    if "shard_id" not in kwargs:
        raise ValueError(
            f"{WORKER_FAULT_ENV} must name a shard, e.g. 'crash,shard=0'"
        )
    return ShardFaultSpec(mode=mode, **kwargs)  # type: ignore[arg-type]


# ----------------------------------------------------------------------
# State fingerprinting
# ----------------------------------------------------------------------
def design_state(design: Design) -> tuple:
    """A deep, comparison-friendly snapshot of all placement state.

    Covers every cell's position *and* master footprint, every segment's
    exact cell ordering, the cell roster, and the id counter — the state
    the transactional layer promises to restore.  Two designs with equal
    ``design_state`` are placement-indistinguishable.
    """
    cells = tuple(
        (c.id, c.name, c.width, c.height, c.x, c.y, c.fixed, c.region)
        for c in design.cells
    )
    segments = tuple(
        (seg.id, tuple(c.id for c in seg.cells))
        for seg in design.floorplan.segments
    )
    return (cells, segments, design._next_cell_id)


def design_state_digest(design: Design, memo: DigestMemo | None = None) -> str:
    """SHA-256 hex digest of :func:`design_state` — "byte-identical".

    With a *memo* the digest is the same, but a cell's or a segment's
    text from the memo's previous call is reused when every value it
    renders is the *identical* object seen then, so only what changed
    since that call is rendered again.
    """
    if memo is None:
        return hashlib.sha256(repr(design_state(design)).encode()).hexdigest()
    return memo.digest_of(design)


#: Stands for "not seen by the memo": identical to no field value.
_UNSEEN = object()
_UNSEEN_CELL = (_UNSEEN,) * 9
_UNSEEN_SEGMENT = (_UNSEEN, (), "")
_cell_id = operator.attrgetter("id")
_is = operator.is_


class DigestMemo:
    """What the last memoized :func:`design_state_digest` call rendered.

    One entry per cell of ``design.cells`` and per segment of
    ``floorplan.segments``, by position, each holding the objects its
    :func:`design_state` tuple is made of and that tuple's ``repr``.  An
    entry is reused only while every one of those objects is the
    identical one (``is``, never ``==``: ``True == 1`` and
    ``166 == 166.0`` are equal but render differently); the memo keeps
    them alive, so no new object can take the identity of an old one.
    The entry lists are rebuilt on every call, so a cell that is gone (a
    rolled-back buffer) drops out, and when nothing changed at all the
    previous digest is returned as is.
    """

    __slots__ = ("cell_entries", "segment_entries", "next_id", "digest")

    def __init__(self) -> None:
        self.cell_entries: list[tuple] = []
        self.segment_entries: list[tuple] = []
        self.next_id: object = _UNSEEN
        self.digest = ""

    def digest_of(self, design: Design) -> str:
        """:func:`design_state_digest` of *design*, re-rendering only the
        cells and segments that changed since the previous call."""
        cells = design.cells
        segments = design.floorplan.segments
        next_id = design._next_cell_id
        changed = (
            next_id is not self.next_id
            or len(cells) != len(self.cell_entries)
            or len(segments) != len(self.segment_entries)
        )

        cell_entries = []
        previous = _padded(self.cell_entries, len(cells), _UNSEEN_CELL)
        for cell, entry in zip(cells, previous):
            i, n, w, h, x, y, f, r, _ = entry
            # Cell.width and Cell.height are its master's fields.
            master = cell.master
            if (
                cell.x is not x
                or cell.y is not y
                or master.width is not w
                or master.height is not h
                or cell.id is not i
                or cell.name is not n
                or cell.fixed is not f
                or cell.region is not r
            ):
                key = (
                    cell.id, cell.name, master.width, master.height,
                    cell.x, cell.y, cell.fixed, cell.region,
                )
                entry = (*key, repr(key))
                changed = True
            cell_entries.append(entry)

        segment_entries = []
        previous = _padded(self.segment_entries, len(segments), _UNSEEN_SEGMENT)
        for seg, entry in zip(segments, previous):
            seg_id, members = seg.id, seg.cells
            previous_id, previous_ids, _ = entry
            if (
                seg_id is not previous_id
                or len(members) != len(previous_ids)
                or not all(map(_is, map(_cell_id, members), previous_ids))
            ):
                ids = tuple(map(_cell_id, members))
                entry = (seg_id, ids, repr((seg_id, ids)))
                changed = True
            segment_entries.append(entry)

        if not changed:
            return self.digest
        self.cell_entries = cell_entries
        self.segment_entries = segment_entries
        self.next_id = next_id
        text = (
            f"({_tuple_repr([e[-1] for e in cell_entries])}, "
            f"{_tuple_repr([e[-1] for e in segment_entries])}, {next_id!r})"
        )
        self.digest = hashlib.sha256(text.encode()).hexdigest()
        return self.digest


def _padded(entries: list, count: int, unseen: tuple) -> list:
    """*entries*, followed by *unseen* up to *count* items if short."""
    return entries + [unseen] * (count - len(entries))


def _tuple_repr(items: list[str]) -> str:
    """``repr`` of a tuple whose elements' ``repr`` are *items*."""
    if len(items) == 1:
        return f"({items[0]},)"
    return f"({', '.join(items)})"


# ----------------------------------------------------------------------
# The sweep protocol
# ----------------------------------------------------------------------
@dataclass(slots=True)
class FaultSweepReport:
    """Outcome of one :func:`fault_sweep`."""

    sites: int
    """Journaled mutation sites the reference run recorded."""

    tripped: list[str] = field(default_factory=list)
    """Site label tripped at each swept index, in order."""

    def __str__(self) -> str:  # pragma: no cover - display helper
        return f"FaultSweepReport(sites={self.sites})"


def fault_sweep(
    factory: Callable[[], tuple[Design, Callable[[], object]]],
    max_sites: int | None = None,
    stride: int = 1,
) -> FaultSweepReport:
    """Crash-consistency sweep: inject a fault at every mutation site.

    *factory* must return a fresh ``(design, action)`` pair each call,
    deterministic across calls (same seed → same mutation schedule).
    The protocol:

    1. build once, run *action* with a counting hook → N sites;
    2. for each site ``i`` (optionally strided/capped for expensive
       actions): rebuild, arm a fault at ``i``, run the action, require
       that the fault tripped and propagated, and that
       :func:`design_state` equals the pre-action state exactly.

    Raises :class:`AssertionError` on any miss — a site that did not
    trip (non-deterministic factory) or a state mismatch (a rollback
    hole in the journal coverage).
    """
    design, action = factory()
    total = count_journaled_mutations(design, action)
    report = FaultSweepReport(sites=total)

    indices = range(1, total + 1, stride)
    if max_sites is not None:
        indices = list(indices)[:max_sites]
    for i in indices:
        design, action = factory()
        before = design_state(design)
        with FaultInjector(design, trip_at=i) as inj:
            try:
                action()
            except InjectedFault:
                pass
            else:
                raise AssertionError(
                    f"fault armed at mutation #{i}/{total} did not trip "
                    f"(saw {inj.seen}); factory is not deterministic"
                )
        after = design_state(design)
        if after != before:
            raise AssertionError(
                f"state not restored after injected fault at mutation "
                f"#{i}/{total} (site {inj.tripped_site!r}): the journal "
                f"rollback left the design corrupted"
            )
        assert inj.tripped_site is not None
        report.tripped.append(inj.tripped_site)
    return report
