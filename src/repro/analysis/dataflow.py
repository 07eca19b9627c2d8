"""Summary-based interprocedural effect inference.

Every function in the program gets an :class:`EffectSummary` over a
five-element effect lattice::

    mutates-design      writes .x/.y/.master or mutates a .cells list
    journals            calls a ``note_*`` primitive / ``Journal._record``
    opens-transaction   enters ``with Transaction(...)`` / ``.transaction()``
    nondeterministic    ambient entropy (random.*, urandom, uuid, hash())
    does-io             file-system / stream traffic (open, print, Path IO)

*Local* effects are what a function's own body exhibits syntactically;
*transitive* effects add everything reachable through resolved call
edges, computed as the least fixpoint of

    transitive(f) = local(f)  ∪  ⋃ { transitive(g) : f calls g }

over the whole-program call graph of :mod:`repro.analysis.callgraph`.
The fixpoint is a standard worklist over reverse edges: when a callee's
summary grows, its callers are revisited.

Unresolved call sites cannot contribute callee summaries, so calls whose
*name* matches a known journaled primitive (``.place``/``.unplace``/
``.shift_x``/``.add_cell``/``.realize_insertion``/``.note_*``) fall back
to that primitive's declared effects.  The approximation errs on the
side of *over*-prediction, which is the safe direction for the rules
that consume it: a missed effect would hide a finding, an extra one
at worst asks for a justified suppression.

The summaries feed two consumers:

* RL10 asks whether an ``async def`` frame reaches design-mutating
  work synchronously;
* ``repro callgraph --effects`` exports them for humans.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.analysis.callgraph import (
    Program,
    _is_transaction_ctx,
    dotted,
    own_nodes,
)

# ----------------------------------------------------------------------
# The effect lattice
# ----------------------------------------------------------------------
MUTATES = "mutates-design"
JOURNALS = "journals"
TRANSACTION = "opens-transaction"
NONDET = "nondeterministic"
IO = "does-io"

ALL_EFFECTS: frozenset[str] = frozenset(
    {MUTATES, JOURNALS, TRANSACTION, NONDET, IO}
)

#: Placement attributes whose stores constitute a design mutation (the
#: same set RL1 guards within a file).
PLACEMENT_ATTRS: frozenset[str] = frozenset({"x", "y", "master"})

#: In-place mutators of the ``.cells`` segment lists.
LIST_MUTATORS: frozenset[str] = frozenset(
    {"append", "pop", "insert", "remove", "extend", "clear", "sort"}
)

#: Known journaled primitives by *method name*: the fallback applied at
#: call sites the resolver could not link to a definition.
PRIMITIVE_EFFECTS: dict[str, frozenset[str]] = {
    "place": frozenset({MUTATES, JOURNALS}),
    "unplace": frozenset({MUTATES, JOURNALS}),
    "shift_x": frozenset({MUTATES, JOURNALS}),
    "add_cell": frozenset({MUTATES, JOURNALS}),
    "realize_insertion": frozenset({MUTATES, JOURNALS}),
}

#: Ground-truth seeds: the journaled primitives carry their effects
#: axiomatically, independent of what local syntactic scanning
#: recovers from their bodies.
SEED_EFFECTS: dict[str, frozenset[str]] = {
    "repro.db.journal.Journal._record": frozenset({JOURNALS}),
    "repro.db.journal.Transaction.__enter__": frozenset({TRANSACTION}),
    "repro.db.design.Design.place": frozenset({MUTATES, JOURNALS}),
    "repro.db.design.Design.unplace": frozenset({MUTATES, JOURNALS}),
    "repro.db.design.Design.shift_x": frozenset({MUTATES, JOURNALS}),
    "repro.db.design.Design.add_cell": frozenset({MUTATES, JOURNALS}),
    "repro.db.design.Design.transaction": frozenset({TRANSACTION}),
}

_NONDET_CALLS: frozenset[str] = frozenset(
    {
        "os.urandom",
        "uuid.uuid1",
        "uuid.uuid4",
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "datetime.now",
        "datetime.datetime.now",
        "datetime.utcnow",
        "datetime.datetime.utcnow",
        "secrets.token_bytes",
        "secrets.token_hex",
        "secrets.randbits",
    }
)

_IO_NAME_CALLS: frozenset[str] = frozenset({"open", "print", "input"})

_IO_METHOD_ATTRS: frozenset[str] = frozenset(
    {
        "write_text",
        "read_text",
        "write_bytes",
        "read_bytes",
        "mkdir",
        "unlink",
        "touch",
        "rmdir",
    }
)

_IO_DOTTED_CALLS: frozenset[str] = frozenset(
    {
        "os.remove",
        "os.rename",
        "os.replace",
        "os.makedirs",
        "os.rmdir",
        "shutil.copy",
        "shutil.copytree",
        "shutil.rmtree",
        "json.dump",
        "json.load",
        "pickle.dump",
        "pickle.load",
        "sys.stdout.write",
        "sys.stderr.write",
    }
)


@dataclass(frozen=True, slots=True)
class EffectSummary:
    """Local and transitive effect sets of one function."""

    local: frozenset[str]
    transitive: frozenset[str]

    def to_dict(self) -> dict[str, list[str]]:
        return {
            "local": sorted(self.local),
            "transitive": sorted(self.transitive),
        }


# ----------------------------------------------------------------------
# Local (intra-procedural) effect detection
# ----------------------------------------------------------------------
def _store_targets(node: ast.AST) -> Iterator[ast.expr]:
    """Expressions written to by an assignment-like statement."""
    if isinstance(node, ast.Assign):
        yield from node.targets
    elif isinstance(node, ast.AugAssign):
        yield node.target
    elif isinstance(node, ast.AnnAssign) and node.value is not None:
        yield node.target


def _call_effects(node: ast.Call, resolved: bool) -> frozenset[str]:
    """Effects exhibited by one call expression."""
    effects: set[str] = set()
    func = node.func
    if isinstance(func, ast.Name):
        if func.id == "hash":
            effects.add(NONDET)
        if func.id in _IO_NAME_CALLS:
            effects.add(IO)
        return frozenset(effects)
    if not isinstance(func, ast.Attribute):
        return frozenset(effects)
    attr = func.attr
    if attr.startswith("note_") or attr == "_record":
        effects.add(JOURNALS)
    if attr in LIST_MUTATORS and (
        isinstance(func.value, ast.Attribute) and func.value.attr == "cells"
    ):
        effects.add(MUTATES)
    if attr in _IO_METHOD_ATTRS:
        effects.add(IO)
    name = dotted(func)
    if name is not None:
        if name in _NONDET_CALLS or (
            name.startswith("random.") and name != "random.Random"
        ):
            # ``random.Random(seed)`` constructs an explicitly seeded
            # stream and is the *deterministic* idiom RL2 blesses.
            effects.add(NONDET)
        if name in _IO_DOTTED_CALLS:
            effects.add(IO)
    if not resolved and attr in PRIMITIVE_EFFECTS:
        # The resolver could not link the receiver; assume the method
        # name means what it means everywhere else in the program.
        effects.update(PRIMITIVE_EFFECTS[attr])
    return frozenset(effects)


def effects_of_nodes(
    nodes: Iterable[ast.AST], resolved_calls: frozenset[int]
) -> frozenset[str]:
    """Local effects exhibited by a body of AST nodes.

    ``resolved_calls`` holds ``id()``s of Call nodes the call graph
    linked to a definition — those contribute through their callee's
    summary instead of the syntactic fallback.
    """
    effects: set[str] = set()
    for node in nodes:
        for target in _store_targets(node):
            if (
                isinstance(target, ast.Attribute)
                and target.attr in PLACEMENT_ATTRS
            ):
                effects.add(MUTATES)
        if isinstance(node, ast.Call):
            effects |= _call_effects(node, id(node) in resolved_calls)
        elif isinstance(node, ast.With):
            if any(_is_transaction_ctx(i.context_expr) for i in node.items):
                effects.add(TRANSACTION)
    return frozenset(effects)


def local_effects(program: Program) -> dict[str, frozenset[str]]:
    """Per-function (and per-module) local effect sets, seeds included."""
    resolved_calls = frozenset(
        id(site.node)
        for site in program.graph.sites
        if site.callee is not None
    )
    out: dict[str, frozenset[str]] = {}
    for qname, info in sorted(program.table.functions.items()):
        body = effects_of_nodes(own_nodes(info.node), resolved_calls)
        out[qname] = body | SEED_EFFECTS.get(qname, frozenset())
    for path in sorted(program.contexts):
        ctx = program.contexts[path]
        from repro.analysis.callgraph import module_name_of

        module_qname = f"{module_name_of(path)}.<module>"
        out[module_qname] = effects_of_nodes(
            program._toplevel_nodes(ctx.tree), resolved_calls
        )
    return out


# ----------------------------------------------------------------------
# The fixpoint
# ----------------------------------------------------------------------
def spawn_edges(program: Program) -> dict[str, frozenset[str]]:
    """Synthetic spawner → payload edges for effect propagation.

    A function that hands ``run_shard`` to a worker pool transitively
    *causes* everything the worker does — and under the ``fork`` start
    method the runtime agrees: the spawner's frame is literally on the
    worker's inherited stack when the payload executes.  The effect
    fixpoint therefore treats every resolved spawn payload as a callee
    of its spawn site's enclosing function.
    """
    from repro.analysis.rules.spawnsites import (
        resolve_payload,
        spawn_sites_in_file,
    )

    edges: dict[str, set[str]] = {}
    for path in sorted(program.contexts):
        ctx = program.contexts[path]
        for site in spawn_sites_in_file(program, ctx):
            info = resolve_payload(program, site)
            if info is not None:
                edges.setdefault(site.caller, set()).add(info.qname)
    return {caller: frozenset(edges[caller]) for caller in sorted(edges)}


def infer_effects(program: Program) -> dict[str, EffectSummary]:
    """Least-fixpoint transitive effect summaries over the call graph
    (augmented with the synthetic :func:`spawn_edges`)."""
    local = local_effects(program)
    out_edges: dict[str, frozenset[str]] = {
        caller: frozenset(program.graph.callees_of(caller))
        for caller in program.graph.out_edges
    }
    for caller, payloads in spawn_edges(program).items():
        out_edges[caller] = out_edges.get(caller, frozenset()) | payloads
    universe: set[str] = set(local)
    for caller in sorted(out_edges):
        universe.add(caller)
        universe.update(out_edges[caller])
    transitive: dict[str, set[str]] = {
        q: set(local.get(q, frozenset())) for q in sorted(universe)
    }
    reverse: dict[str, set[str]] = {}
    for caller in sorted(out_edges):
        for callee in sorted(out_edges[caller]):
            reverse.setdefault(callee, set()).add(caller)
    worklist: deque[str] = deque(sorted(universe))
    queued: set[str] = set(universe)
    while worklist:
        qname = worklist.popleft()
        queued.discard(qname)
        merged: set[str] = set(local.get(qname, frozenset()))
        for callee in sorted(out_edges.get(qname, frozenset())):
            merged |= transitive.get(callee, set())
        if merged != transitive[qname]:
            transitive[qname] = merged
            for caller in sorted(reverse.get(qname, set())):
                if caller not in queued:
                    queued.add(caller)
                    worklist.append(caller)
    return {
        q: EffectSummary(
            local=frozenset(local.get(q, frozenset())),
            transitive=frozenset(transitive[q]),
        )
        for q in sorted(universe)
    }
