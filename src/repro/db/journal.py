"""Journaled (transactional) mutation layer for the placement database.

MLL's abort semantics are load-bearing: Algorithm 1 retries a failed cell
only because a failed ``try_place`` "leaves the design untouched", and the
parallel engine's seam reconciler re-runs MLL over shard deltas under the
same assumption.  Realization, however, mutates segment cell lists and
cell coordinates row by row — an exception in mid-flight (a
:class:`~repro.core.realization.RealizationError`, an injected fault, a
``KeyboardInterrupt``) would historically leave the design corrupted.

This module closes that hole with a classic undo log:

* :class:`Journal` — an append-only log of :class:`JournalEntry` records,
  one per primitive mutation (place, unplace, shift, raw list insert,
  cell creation, master swap).  ``rollback_to(mark)`` undoes a suffix of
  the log in strict LIFO order, restoring the exact prior state including
  segment cell-list positions.
* :class:`Transaction` — a context manager binding a journal to a
  :class:`~repro.db.design.Design`.  Transactions nest: the outermost one
  owns the journal, inner ones are savepoints on the same log.  On an
  exception the transaction rolls back to its savepoint and re-raises;
  on normal exit it commits (keeps the mutations, and the outermost
  transaction discards the log).

The convention throughout the codebase is **mutate first, record second**:
an entry is appended only after its mutation has been applied, so the log
never describes a mutation that did not happen.  The journal's
``on_record`` hook (see :mod:`repro.testing.faults`) fires after the
entry is appended — a hook that raises therefore simulates a crash
*after* a mutation, and rollback must (and does) undo it.
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.db.cell import Cell
    from repro.db.design import Design
    from repro.db.library import CellMaster
    from repro.db.segment import Segment


class JournalError(Exception):
    """The undo log is inconsistent with the design state (a bug)."""


class Op(Enum):
    """Kind of journaled mutation."""

    PLACE = "place"
    UNPLACE = "unplace"
    SHIFT_X = "shift_x"
    SET_POS = "set_pos"
    LIST_INSERT = "list_insert"
    CELL_ADD = "cell_add"
    MASTER_SWAP = "master_swap"


class JournalEntry:
    """One primitive mutation, with everything needed to undo it.

    Entries are plain records; undo logic lives in
    :meth:`Journal._undo_entry` so the entry stays picklable/printable.
    """

    __slots__ = (
        "op", "site", "cell", "segments", "indices", "seq", "index",
        "old_x", "old_y", "old_master", "old_next_id",
    )

    def __init__(
        self,
        op: Op,
        site: str,
        cell: "Cell | None" = None,
        segments: tuple["Segment", ...] = (),
        indices: tuple[int, ...] = (),
        seq: "list[Cell] | None" = None,
        index: int = -1,
        old_x: int | None = None,
        old_y: int | None = None,
        old_master: "CellMaster | None" = None,
        old_next_id: int | None = None,
    ) -> None:
        self.op = op
        #: Human-readable mutation site label (e.g. ``"realize.shift_x"``);
        #: the unit the fault-injection harness enumerates.
        self.site = site
        self.cell = cell
        self.segments = segments
        self.indices = indices
        self.seq = seq
        self.index = index
        self.old_x = old_x
        self.old_y = old_y
        self.old_master = old_master
        self.old_next_id = old_next_id

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        name = self.cell.name if self.cell is not None else None
        return f"JournalEntry({self.op.value}, site={self.site!r}, cell={name!r})"


class Journal:
    """Undo log for one :class:`~repro.db.design.Design`.

    ``on_record`` (optional) is called with each entry right after it is
    appended; it may raise to simulate a fault at that mutation site.
    Rollback never fires the hook.
    """

    __slots__ = ("design", "entries", "on_record")

    def __init__(
        self,
        design: "Design",
        on_record: Callable[[JournalEntry], None] | None = None,
    ) -> None:
        self.design = design
        self.entries: list[JournalEntry] = []
        self.on_record = on_record

    def __len__(self) -> int:
        return len(self.entries)

    # ------------------------------------------------------------------
    # Recording (mutation must already be applied by the caller)
    # ------------------------------------------------------------------
    def _record(self, entry: JournalEntry) -> None:
        self.entries.append(entry)
        if self.on_record is not None:
            self.on_record(entry)

    def note_place(
        self, cell: "Cell", segments: tuple["Segment", ...], site: str
    ) -> None:
        """The cell was just placed and inserted into *segments*."""
        self._record(JournalEntry(Op.PLACE, site, cell=cell, segments=segments))

    def note_unplace(
        self,
        cell: "Cell",
        segments: tuple["Segment", ...],
        indices: tuple[int, ...],
        old_x: int,
        old_y: int,
        site: str,
    ) -> None:
        """The cell was just removed from *segments* (at *indices*)."""
        self._record(
            JournalEntry(
                Op.UNPLACE, site, cell=cell, segments=segments,
                indices=indices, old_x=old_x, old_y=old_y,
            )
        )

    def note_shift_x(self, cell: "Cell", old_x: int, site: str) -> None:
        """The cell's x was just changed (same row, order preserved)."""
        self._record(JournalEntry(Op.SHIFT_X, site, cell=cell, old_x=old_x))

    def note_set_pos(
        self, cell: "Cell", old_x: int | None, old_y: int | None, site: str
    ) -> None:
        """The cell's raw (x, y) was just assigned (no registration)."""
        self._record(
            JournalEntry(Op.SET_POS, site, cell=cell, old_x=old_x, old_y=old_y)
        )

    def note_list_insert(
        self, seq: "list[Cell]", index: int, cell: "Cell", site: str
    ) -> None:
        """``seq.insert(index, cell)`` was just performed."""
        self._record(
            JournalEntry(Op.LIST_INSERT, site, cell=cell, seq=seq, index=index)
        )

    def note_cell_added(
        self, cell: "Cell", old_next_id: int, site: str
    ) -> None:
        """The cell was just appended to ``design.cells``."""
        self._record(
            JournalEntry(Op.CELL_ADD, site, cell=cell, old_next_id=old_next_id)
        )

    def note_master_swap(
        self, cell: "Cell", old_master: "CellMaster", site: str
    ) -> None:
        """The cell's master was just replaced."""
        self._record(
            JournalEntry(Op.MASTER_SWAP, site, cell=cell, old_master=old_master)
        )

    # ------------------------------------------------------------------
    # Savepoints and rollback
    # ------------------------------------------------------------------
    def mark(self) -> int:
        """Savepoint: the current log length."""
        return len(self.entries)

    def rollback_to(self, mark: int) -> int:
        """Undo every entry past *mark*, newest first; return the count."""
        undone = 0
        while len(self.entries) > mark:
            self._undo_entry(self.entries.pop())
            undone += 1
        return undone

    def rollback(self) -> int:
        """Undo the whole log."""
        return self.rollback_to(0)

    def commit(self) -> None:
        """Forget the log (mutations are kept)."""
        self.entries.clear()

    # ------------------------------------------------------------------
    def _undo_entry(self, e: JournalEntry) -> None:
        op = e.op
        if op is Op.SHIFT_X:
            e.cell.x = e.old_x
        elif op is Op.LIST_INSERT:
            if not (0 <= e.index < len(e.seq)) or e.seq[e.index] is not e.cell:
                raise JournalError(
                    f"list-insert undo at {e.site}: index {e.index} does not "
                    f"hold cell {e.cell.name!r}"
                )
            del e.seq[e.index]
        elif op is Op.SET_POS:
            e.cell.x = e.old_x
            e.cell.y = e.old_y
        elif op is Op.PLACE:
            for seg in e.segments:
                seg.remove_cell(e.cell)
            e.cell.x = None
            e.cell.y = None
        elif op is Op.UNPLACE:
            e.cell.x = e.old_x
            e.cell.y = e.old_y
            for seg, idx in zip(e.segments, e.indices):
                seg.cells.insert(idx, e.cell)
        elif op is Op.CELL_ADD:
            self.design.cells.remove(e.cell)
            if e.old_next_id is not None:
                self.design._next_cell_id = e.old_next_id
        elif op is Op.MASTER_SWAP:
            e.cell.master = e.old_master
        else:  # pragma: no cover - exhaustive
            raise JournalError(f"unknown journal op {op!r}")


class Transaction:
    """Scope all design mutations; roll back on exception, commit on exit.

    Usage::

        with Transaction(design) as txn:
            ...mutations through the Design API / realize_insertion...
            if not acceptable:
                txn.rollback()      # explicit abort; state is restored

    Transactions nest freely: the outermost transaction creates (and on
    exit detaches) ``design.journal``; inner transactions are savepoints
    on the same journal, so an outer rollback still undoes committed
    inner work.  The design's ``journal_hook`` (if any) is attached to a
    newly created journal — this is how the fault-injection harness
    observes every mutation site.
    """

    __slots__ = ("design", "journal", "_own", "_mark", "_finished")

    def __init__(self, design: "Design") -> None:
        self.design = design
        self.journal: Journal | None = None
        self._own = False
        self._mark = 0
        self._finished = False

    def __enter__(self) -> "Transaction":
        if self.design.journal is None:
            self.design.journal = Journal(
                self.design, on_record=self.design.journal_hook
            )
            self._own = True
        self.journal = self.design.journal
        self._mark = self.journal.mark()
        return self

    def rollback(self) -> int:
        """Restore the state at transaction entry; idempotent."""
        if self._finished:
            return 0
        self._finished = True
        return self.journal.rollback_to(self._mark)

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: object,
    ) -> bool:
        try:
            if exc_type is not None and not self._finished:
                self.journal.rollback_to(self._mark)
            self._finished = True
        finally:
            if self._own:
                self.design.journal = None
        return False
