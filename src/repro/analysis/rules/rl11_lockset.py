"""RL11: lockset discipline for state shared across threads and tasks.

The TCP shard coordinator (:mod:`repro.engine.remote`) runs one accept
thread, one handler thread per worker connection and a heartbeat
thread, all mutating one lease table under one lock; the serve layer
mixes an event loop with ``asyncio.to_thread`` job threads.  Two
concurrency bugs hide in that shape and survive every per-file rule:

* **Inconsistent locksets** (Eraser-style, writes only): an attribute
  of a lock-owning class — or a module-level global — written from two
  or more concurrency roots where *some* writes hold a lock and others
  hold none.  The locked sites document the discipline; the bare sites
  break it.  Locksets combine the lexical ``with self._lock:`` scope
  with the inherited entry lockset (the meet over call sites), so the
  coordinator's "caller holds the lock" helpers analyze correctly.
* **Cross-thread loop touches**: event-loop objects (``asyncio.Queue``,
  futures, the loop itself) are not thread-safe; the only blessed hops
  from a worker thread are ``call_soon_threadsafe`` /
  ``run_coroutine_threadsafe``.  Any direct ``put_nowait`` /
  ``set_result`` / ``call_soon`` / ``create_task`` on a loop object
  from thread context is flagged.

Concurrency roots are spawn payloads (threads, tasks, to_thread
off-loads) plus the spawning frames themselves — the spawner keeps
running concurrently with its payload.  Reads are deliberately exempt:
the tree's convention allows racy reads of monotonic counters, and
flagging them would bury the real findings.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.callgraph import ClassInfo, Program, own_nodes
from repro.analysis.concurrency import (
    THREADSAFE_HOPS,
    ConcurrencyModel,
    model_for,
)
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.registry import BaseProgramRule, register_program
from repro.analysis.rules.rl8_sharedstate import MUTATOR_METHODS

_FunctionNode = ast.FunctionDef | ast.AsyncFunctionDef
#: (write node, enclosing method qname, reaching roots, lockset held).
_Access = tuple[ast.AST, str, frozenset[str], frozenset[str]]
_Closures = dict[str, frozenset[str]]

#: Loop-object methods unsafe to call from a foreign thread.
_LOOP_UNSAFE_BY_NAME: frozenset[str] = frozenset(
    {"call_soon", "call_later", "call_at", "create_task"}
)
_LOOP_UNSAFE_TYPED: frozenset[str] = frozenset(
    {"put_nowait", "get_nowait", "set_result", "set_exception"}
)


@register_program
class LocksetRule(BaseProgramRule):
    """Shared state needs one lockset; loop objects need loop-hops."""

    code = "RL11"
    name = "lockset"
    summary = (
        "state written from several threads/tasks must hold a "
        "consistent lockset, and event-loop objects are only touched "
        "from threads via *_threadsafe hops"
    )
    enforced = ("", "core", "engine", "apps", "io", "checker", "serve")

    def check_program(self, program: Program) -> Iterator[Diagnostic]:
        model = model_for(program)
        if not model.spawns:
            return
        roots = model.concurrency_roots()
        if not roots:
            return
        closures = {
            root: frozenset(program.graph.reachable_from([root]))
            for root in sorted(roots)
        }
        yield from self._check_attr_locksets(program, model, closures)
        yield from self._check_global_locksets(program, model, closures)
        yield from self._check_loop_touches(program, model)

    # ------------------------------------------------------------------
    # Inconsistent locksets on lock-owning classes
    # ------------------------------------------------------------------
    def _check_attr_locksets(
        self,
        program: Program,
        model: ConcurrencyModel,
        closures: _Closures,
    ) -> Iterator[Diagnostic]:
        for cls_qname in sorted(model.lock_attrs):
            cls = program.table.classes[cls_qname]
            accesses: dict[str, list[_Access]] = {}
            for mname in sorted(cls.methods):
                qname = cls.methods[mname]
                origins = frozenset(
                    root
                    for root, closure in closures.items()
                    if qname in closure
                )
                if not origins:
                    continue
                info = program.table.functions[qname]
                for attr, node in self._attr_writes(info.node):
                    if attr in model.lock_attrs[cls_qname]:
                        continue  # writing the lock attr itself
                    accesses.setdefault(attr, []).append(
                        (
                            node,
                            qname,
                            origins,
                            model.effective_lockset(node, qname),
                        )
                    )
            for attr in sorted(accesses):
                yield from self._judge(
                    program, f"{_short(cls_qname)}.{attr}", accesses[attr]
                )

    def _attr_writes(
        self, func_node: _FunctionNode
    ) -> Iterator[tuple[str, ast.AST]]:
        """``self.X`` attribute names written in *func_node*'s body,
        directly or into a local alias of ``self.X`` (``lease.deadline
        = ...`` after ``lease = self._leases.get(key)``)."""
        aliases = _self_aliases(func_node)
        for node in own_nodes(func_node):
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Delete):
                targets = list(node.targets)
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in MUTATOR_METHODS
                ):
                    attr = _self_attr_of(func.value) or _alias_of(
                        func, aliases
                    )
                    if attr is not None:
                        yield attr, node
                continue
            for target in targets:
                attr = _self_attr_of(target) or _alias_of(target, aliases)
                if attr is not None:
                    yield attr, node

    # ------------------------------------------------------------------
    # Inconsistent locksets on module globals
    # ------------------------------------------------------------------
    def _check_global_locksets(
        self,
        program: Program,
        model: ConcurrencyModel,
        closures: _Closures,
    ) -> Iterator[Diagnostic]:
        table = program.table
        accesses: dict[tuple[str, str], list[_Access]] = {}
        reached: dict[str, frozenset[str]] = {}
        for root, closure in closures.items():
            for qname in closure:
                reached[qname] = reached.get(qname, frozenset()) | {root}
        for qname in sorted(reached):
            info = table.functions.get(qname)
            if info is None:
                continue
            declared = _global_decls(info.node)
            for node in own_nodes(info.node):
                name: str | None = None
                if isinstance(node, ast.Assign):
                    for target in node.targets:
                        if (
                            isinstance(target, ast.Name)
                            and target.id in declared
                        ):
                            name = target.id
                elif isinstance(node, ast.AugAssign):
                    if (
                        isinstance(node.target, ast.Name)
                        and node.target.id in declared
                    ):
                        name = node.target.id
                elif isinstance(node, ast.Call):
                    func = node.func
                    if (
                        isinstance(func, ast.Attribute)
                        and func.attr in MUTATOR_METHODS
                        and isinstance(func.value, ast.Name)
                    ):
                        var = (info.module, func.value.id)
                        gvar = table.globals.get(var)
                        if (
                            gvar is not None
                            and gvar.mutable
                            and func.value.id not in _local_names(info.node)
                        ):
                            name = func.value.id
                if name is None:
                    continue
                if name in model.module_locks.get(info.module, ()):
                    continue
                accesses.setdefault((info.module, name), []).append(
                    (
                        node,
                        qname,
                        reached[qname],
                        model.effective_lockset(node, qname),
                    )
                )
        for module, name in sorted(accesses):
            yield from self._judge(
                program, f"{_short(module)}.{name}", accesses[(module, name)]
            )

    # ------------------------------------------------------------------
    def _judge(
        self, program: Program, what: str, rows: list[_Access]
    ) -> Iterator[Diagnostic]:
        """Flag bare writes when locked writes document a discipline
        and the accesses span ≥2 concurrency roots."""
        all_roots: set[str] = set()
        for _node, _qname, origins, _lockset in rows:
            all_roots.update(origins)
        if len(all_roots) < 2:
            return
        locked = [r for r in rows if r[3]]
        bare = [r for r in rows if not r[3]]
        if not locked or not bare:
            return
        tokens = sorted({t for r in locked for t in r[3]})
        seen: set[tuple[str, int]] = set()
        for node, qname, _origins, _lockset in bare:
            info = program.table.functions[qname]
            key = (info.path, node.lineno)
            if key in seen or not self._in_scope(program, info.path):
                continue
            seen.add(key)
            yield self.diag_at(
                info.path,
                node.lineno,
                node.col_offset,
                f"{what} is written from {len(all_roots)} concurrent "
                f"contexts with an inconsistent lockset: this write in "
                f"{_short(qname)} holds no lock while other writes "
                f"hold {', '.join(_short(t) for t in tokens)}; wrap it "
                "in the same `with` scope (or document single-threaded "
                "ownership with a suppression)",
            )

    # ------------------------------------------------------------------
    # Cross-thread event-loop touches
    # ------------------------------------------------------------------
    def _check_loop_touches(
        self, program: Program, model: ConcurrencyModel
    ) -> Iterator[Diagnostic]:
        table = program.table
        for qname in sorted(model.thread_context()):
            info = table.functions.get(qname)
            if info is None or not self._in_scope(program, info.path):
                continue
            types = model._local_types_of(info)
            cls: ClassInfo | None = None
            if info.class_qname is not None:
                cls = table.classes.get(info.class_qname)
            for node in own_nodes(info.node):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if not isinstance(func, ast.Attribute):
                    continue
                if func.attr in THREADSAFE_HOPS:
                    continue
                unsafe = func.attr in _LOOP_UNSAFE_BY_NAME or (
                    func.attr in _LOOP_UNSAFE_TYPED
                    and _receiver_is_asyncio(func.value, types, cls)
                )
                if unsafe:
                    yield self.diag_at(
                        info.path,
                        node.lineno,
                        node.col_offset,
                        f"thread-context frame {_short(qname)} calls "
                        f"{func.attr} on an event-loop object: loop "
                        "objects are not thread-safe; route the call "
                        "through loop.call_soon_threadsafe (or "
                        "run_coroutine_threadsafe)",
                    )

    def _in_scope(self, program: Program, path: str) -> bool:
        ctx = program.contexts.get(path)
        if ctx is None or ctx.subpackage is None:
            return True
        return ctx.subpackage in self.enforced


# ----------------------------------------------------------------------
def _self_attr_of(expr: ast.expr) -> str | None:
    """First attribute name of a chain rooted at ``self``: the owning
    slot for ``self.X``, ``self.X[k]`` and ``self.X.y.append`` alike."""
    cur = expr
    while isinstance(cur, ast.Subscript):
        cur = cur.value
    chain: list[str] = []
    while isinstance(cur, ast.Attribute):
        chain.append(cur.attr)
        cur = cur.value
    if isinstance(cur, ast.Name) and cur.id == "self" and chain:
        return chain[-1]
    return None


def _self_aliases(func_node: _FunctionNode) -> dict[str, str]:
    """Locals bound only from an expression rooted at ``self.X``
    (``self.X``, ``self.X[k]``, ``self.X.get(k)``, ``for v in
    self.X.values()``), each mapped to ``X``."""
    aliases: dict[str, str] = {}
    rebound: set[str] = set()
    for node in own_nodes(func_node):
        if isinstance(node, ast.Assign):
            pairs = [(target, node.value) for target in node.targets]
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            pairs = [(node.target, node.iter)]
        else:
            continue
        for target, value in pairs:
            names = target.elts if isinstance(target, ast.Tuple) else [target]
            source = value
            if isinstance(value, ast.Call):
                # `self.X.get(k)` reads through its receiver `self.X`;
                # `self.method()` returns no alias of `self`.
                func = value.func
                source = func.value if isinstance(func, ast.Attribute) else func
            attr = _self_attr_of(source)
            for name in names:
                if not isinstance(name, ast.Name):
                    continue
                if attr is None:
                    rebound.add(name.id)
                else:
                    aliases[name.id] = attr
    return {n: a for n, a in aliases.items() if n not in rebound}


def _alias_of(expr: ast.expr, aliases: dict[str, str]) -> str | None:
    """``X`` when *expr* writes into a local alias of ``self.X``: an
    attribute or item of it (``lease.deadline``, ``lease[k]``), or a
    mutator method on it (``lease.append``)."""
    cur = expr
    while isinstance(cur, (ast.Attribute, ast.Subscript)):
        cur = cur.value
    if cur is expr or not isinstance(cur, ast.Name):
        return None
    return aliases.get(cur.id)


def _receiver_is_asyncio(
    expr: ast.expr, types: dict[str, str], cls: ClassInfo | None
) -> bool:
    """Receiver statically typed as an asyncio object."""
    tname: str | None = None
    if isinstance(expr, ast.Name):
        tname = types.get(expr.id)
    elif (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "self"
        and cls is not None
    ):
        tname = cls.attr_types.get(expr.attr)
    if tname is None:
        return False
    return tname.startswith("asyncio.") or tname in (
        "Queue", "Future", "Event", "AbstractEventLoop",
    )


def _global_decls(node: _FunctionNode) -> frozenset[str]:
    names: set[str] = set()
    for sub in own_nodes(node):
        if isinstance(sub, ast.Global):
            names.update(sub.names)
    return frozenset(names)


def _local_names(func_node: _FunctionNode) -> frozenset[str]:
    """Names bound locally (params + assignments), shadowing globals."""
    names: set[str] = set()
    args = func_node.args
    for arg in (
        list(args.posonlyargs)
        + list(args.args)
        + list(args.kwonlyargs)
    ):
        names.add(arg.arg)
    for sub in own_nodes(func_node):
        if isinstance(sub, ast.Assign):
            for target in sub.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(sub, (ast.AnnAssign, ast.AugAssign)):
            if isinstance(sub.target, ast.Name):
                names.add(sub.target.id)
        elif isinstance(sub, (ast.For, ast.AsyncFor)):
            if isinstance(sub.target, ast.Name):
                names.add(sub.target.id)
    return frozenset(names)


def _short(qname: str) -> str:
    return qname[6:] if qname.startswith("repro.") else qname
