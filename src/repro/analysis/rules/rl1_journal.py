"""RL1 — journal-bypass.

The transactional layer (PR 2) only restores what the journal saw: a
placement mutation that is not journaled silently breaks rollback, the
exact corruption class ``tests/core/test_transaction_faults.py`` sweeps
for.  This rule finds placement-state mutations performed *outside* the
journaled primitives:

* attribute writes to ``.x`` / ``.y`` / ``.master`` on anything that is
  not ``self`` (the DB classes' own primitives live in ``db/``, which is
  whitelisted wholesale);
* mutating calls on ``.cells`` lists (``append``/``insert``/``remove``/
  ``pop``/``clear``/``extend``/``sort``/``reverse``), plus ``del``/
  item-assignment on ``.cells[...]``.

A mutation is accepted when the **mutate-first, record-second**
convention is visible: a ``journal.note_*`` call appears within the
next :data:`JOURNAL_WINDOW` sibling statements (the pattern used by
``realize_insertion`` and ``apps.sizing``).  Everything else must be
routed through ``Design.place`` / ``unplace`` / ``shift_x`` /
``add_cell`` — or, for scratch structures that merely *look* like DB
state (local-region copies, report objects), suppressed with a
justification.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.context import FileContext, parent_of
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.registry import BaseRule, register

#: Attributes that constitute journaled placement state.
PLACEMENT_ATTRS = frozenset({"x", "y", "master"})

#: In-place mutators of segment / design cell lists.
LIST_MUTATORS = frozenset(
    {"append", "insert", "remove", "pop", "clear", "extend", "sort", "reverse"}
)

#: How many sibling statements after a mutation may hold its journal
#: record (`x`, then `y`, then ``if journal is not None: note_*``).
JOURNAL_WINDOW = 3

_BODY_FIELDS = ("body", "orelse", "finalbody")


def _is_note_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr.startswith("note_")
    )


def _contains_note_call(node: ast.AST) -> bool:
    return any(_is_note_call(n) for n in ast.walk(node))


def _statement_of(node: ast.AST) -> ast.stmt | None:
    """The innermost statement containing *node*."""
    cur: ast.AST | None = node
    while cur is not None and not isinstance(cur, ast.stmt):
        cur = parent_of(cur)
    return cur


def _journaled_nearby(node: ast.AST) -> bool:
    """True when a ``note_*`` record follows within the journal window."""
    stmt = _statement_of(node)
    if stmt is None:
        return False
    if _contains_note_call(stmt):
        return True
    parent = parent_of(stmt)
    if parent is None:
        return False
    for field in _BODY_FIELDS:
        body = getattr(parent, field, None)
        if isinstance(body, list) and stmt in body:
            idx = body.index(stmt)
            for follower in body[idx + 1 : idx + 1 + JOURNAL_WINDOW]:
                if _contains_note_call(follower):
                    return True
    return False


def _is_self(node: ast.expr) -> bool:
    return isinstance(node, ast.Name) and node.id in ("self", "cls")


def _cells_attribute(node: ast.expr) -> bool:
    """True for an expression of shape ``<base>.cells``.

    ``self.cells`` is exempt: a class mutating its *own* list attribute
    is managing encapsulated state (``StuckCellReport.merge``), not
    reaching into the placement database — the DB classes themselves
    live in the whitelisted ``db/`` package.
    """
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "cells"
        and not _is_self(node.value)
    )


@register
class JournalBypassRule(BaseRule):
    code = "RL1"
    name = "journal-bypass"
    summary = (
        "placement-state mutation outside the journaled Design/Journal "
        "primitives (breaks transactional rollback)"
    )
    #: ``db`` is the whitelisted home of the primitives themselves;
    #: ``bench``/``baselines``/``viz``/``gp`` operate on scratch or
    #: pre-legalization state and are exempt by design (documented in
    #: docs/static_analysis.md).
    enforced = ("core", "engine", "apps", "io", "checker")

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                yield from self._check_assignment(ctx, node)
            elif isinstance(node, ast.Call):
                yield from self._check_call(ctx, node)
            elif isinstance(node, ast.Delete):
                yield from self._check_delete(ctx, node)

    # ------------------------------------------------------------------
    def _check_assignment(
        self, ctx: FileContext, node: ast.Assign | ast.AugAssign | ast.AnnAssign
    ) -> Iterator[Diagnostic]:
        targets: list[ast.expr]
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        else:
            targets = [node.target]
        for target in targets:
            # x, y unpacking: look through tuples.
            stack = [target]
            while stack:
                t = stack.pop()
                if isinstance(t, (ast.Tuple, ast.List)):
                    stack.extend(t.elts)
                    continue
                if (
                    isinstance(t, ast.Attribute)
                    and t.attr in PLACEMENT_ATTRS
                    and not _is_self(t.value)
                    and not _journaled_nearby(node)
                ):
                    yield self.diag(
                        ctx,
                        t,
                        f"direct write to placement state `.{t.attr}` "
                        f"bypasses the mutation journal; use "
                        f"Design.place/unplace/shift_x (or journal it "
                        f"with journal.note_* within {JOURNAL_WINDOW} "
                        f"statements)",
                    )
                elif (
                    isinstance(t, ast.Subscript)
                    and _cells_attribute(t.value)
                    and not _journaled_nearby(node)
                ):
                    yield self.diag(
                        ctx,
                        t,
                        "item assignment into a `.cells` list bypasses "
                        "the mutation journal; use the Design/Segment "
                        "primitives or journal the mutation",
                    )

    def _check_call(
        self, ctx: FileContext, node: ast.Call
    ) -> Iterator[Diagnostic]:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in LIST_MUTATORS
            and _cells_attribute(func.value)
            and not _journaled_nearby(node)
        ):
            yield self.diag(
                ctx,
                node,
                f"`.cells.{func.attr}(...)` mutates a cell list outside "
                f"the journaled primitives; use Design.place/unplace or "
                f"journal the mutation (journal.note_* within "
                f"{JOURNAL_WINDOW} statements)",
            )

    def _check_delete(
        self, ctx: FileContext, node: ast.Delete
    ) -> Iterator[Diagnostic]:
        for target in node.targets:
            if (
                isinstance(target, ast.Subscript)
                and _cells_attribute(target.value)
                and not _journaled_nearby(node)
            ):
                yield self.diag(
                    ctx,
                    target,
                    "`del` on a `.cells` list bypasses the mutation "
                    "journal; use Design.unplace or journal the mutation",
                )
