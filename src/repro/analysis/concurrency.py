"""Concurrency model over the whole-program call graph.

PRs 6-8 made the tree genuinely concurrent — an asyncio ECO server
(:mod:`repro.serve`) and a threaded TCP shard coordinator
(:mod:`repro.engine.remote`) — while the RL1-RL8 stack stayed
concurrency-blind.  This module adds the missing vocabulary on top of
:class:`~repro.analysis.callgraph.Program`:

* **Spawn edges** — every site that moves work onto another task or
  thread: ``asyncio.create_task``/``ensure_future``/``gather`` (kind
  ``"task"``), ``asyncio.to_thread``/``loop.run_in_executor`` (kind
  ``"offload"``), ``threading.Thread(target=...)`` (kind ``"thread"``)
  and the blessed cross-thread hops ``call_soon_threadsafe``/
  ``run_coroutine_threadsafe`` (kind ``"loop-hop"``).  Payloads resolve
  through the symbol table, including ``self.method`` references and
  inner calls (``create_task(self._drain(key, q))``).
* **Await points** — every ``await`` / ``async for`` / ``async with``
  in an ``async def`` body, annotated with whether it sits lexically
  inside a ``with Transaction(...)`` scope and which locks are held.
* **Locksets** — lexical lock scopes (``with self._lock:`` on a
  lock-typed attribute, ``with MODULE_LOCK:`` on a module-level lock)
  plus an inherited entry-lockset fixpoint: a function's entry lockset
  is the *meet* (intersection) over all call sites of the caller's
  effective lockset, with spawn payloads, value-referenced callbacks
  and call-graph roots pinned to the empty set.  This models the
  coordinator's "caller holds the lock" helper convention without
  annotations.

RL9-RL11 consume the model.  :data:`CONCURRENCY_MODEL_VERSION` feeds
the incremental cache's program key so cached RL9-RL11 results
self-invalidate when the model's semantics change.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.callgraph import (
    CallSite,
    FunctionInfo,
    Program,
    dotted,
    module_name_of,
    own_nodes,
)
from repro.analysis.context import ancestors

#: Bump when spawn/await/lockset semantics change: the lint cache mixes
#: this into the program key so stale RL9-RL11 results re-analyze cold.
CONCURRENCY_MODEL_VERSION = "2"

#: Receiver-method names that schedule a coroutine as a task.
TASK_SPAWN_ATTRS: frozenset[str] = frozenset({"create_task", "ensure_future"})

#: Blessed thread→loop hand-off points (never themselves a hazard).
THREADSAFE_HOPS: frozenset[str] = frozenset(
    {"call_soon_threadsafe", "run_coroutine_threadsafe"}
)

#: Class names that act as mutual-exclusion locks for ``with
#: self.attr:`` scoping.  asyncio primitives are deliberately excluded:
#: an ``async with self._semaphore`` limits task concurrency on one
#: loop, it does not exclude threads, so folding it into locksets would
#: fabricate a discipline the code never promises.
LOCK_CLASS_NAMES: frozenset[str] = frozenset({"Lock", "RLock", "Condition"})

_FunctionNode = ast.FunctionDef | ast.AsyncFunctionDef


@dataclass(slots=True)
class AwaitPoint:
    """One suspension point inside an ``async def`` body."""

    function: str
    """Qualified name of the enclosing async function."""

    path: str
    lineno: int
    col: int
    kind: str
    """``"await"`` | ``"async-for"`` | ``"async-with"``."""

    in_transaction: bool
    """Lexically inside ``with Transaction(...)``."""

    lockset: frozenset[str] = frozenset()
    """Lexical lock tokens held at the point."""


@dataclass(slots=True)
class SpawnEdge:
    """One site that ships work onto another task or thread."""

    site: CallSite
    kind: str
    """``"task"`` | ``"offload"`` | ``"thread"`` | ``"loop-hop"``."""

    payload: str | None
    """Resolved qualified name of the spawned callable, if static."""

    payload_expr: ast.expr | None = field(default=None, repr=False)


class ConcurrencyModel:
    """Spawn edges, await points and locksets for one program."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self._site_by_node: dict[int, CallSite] = {
            id(site.node): site for site in program.graph.sites
        }
        self._local_types_memo: dict[str, dict[str, str]] = {}
        self.async_functions: frozenset[str] = frozenset(
            qname
            for qname, info in program.table.functions.items()
            if isinstance(info.node, ast.AsyncFunctionDef)
        )
        self.lock_attrs: dict[str, frozenset[str]] = self._find_lock_attrs()
        self.module_locks: dict[str, frozenset[str]] = (
            self._find_module_locks()
        )
        self.await_points: dict[str, tuple[AwaitPoint, ...]] = (
            self._find_await_points()
        )
        self.spawns: tuple[SpawnEdge, ...] = tuple(self._find_spawns())
        self.entry_locksets: dict[str, frozenset[str]] = (
            self._infer_entry_locksets()
        )

    # ------------------------------------------------------------------
    # Lock discovery
    # ------------------------------------------------------------------
    def _find_lock_attrs(self) -> dict[str, frozenset[str]]:
        """class qname → ``self.attr`` names that hold lock objects."""
        out: dict[str, frozenset[str]] = {}
        for qname, cls in self.program.table.classes.items():
            attrs = {
                attr
                for attr, tname in cls.attr_types.items()
                if tname.rsplit(".", 1)[-1] in LOCK_CLASS_NAMES
                and not tname.startswith("asyncio")
            }
            if attrs:
                out[qname] = frozenset(attrs)
        return out

    def _find_module_locks(self) -> dict[str, frozenset[str]]:
        """module → top-level names bound to lock constructor calls."""
        out: dict[str, frozenset[str]] = {}
        for path, ctx in self.program.contexts.items():
            module = module_name_of(path)
            names: set[str] = set()
            for stmt in ctx.tree.body:
                target: ast.expr | None = None
                value: ast.expr | None = None
                if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                    target, value = stmt.targets[0], stmt.value
                elif isinstance(stmt, ast.AnnAssign):
                    target, value = stmt.target, stmt.value
                if (
                    isinstance(target, ast.Name)
                    and isinstance(value, ast.Call)
                ):
                    name = dotted(value.func)
                    if (
                        name is not None
                        and name.rsplit(".", 1)[-1] in LOCK_CLASS_NAMES
                        and not name.startswith("asyncio")
                    ):
                        names.add(target.id)
            if names:
                out[module] = frozenset(names)
        return out

    # ------------------------------------------------------------------
    # Lexical locksets
    # ------------------------------------------------------------------
    def lexical_lockset(
        self, node: ast.AST, info: FunctionInfo | None
    ) -> frozenset[str]:
        """Lock tokens held at *node* by enclosing ``with`` scopes.

        Stops at the enclosing function boundary: a closure defined
        inside a lock scope runs later, without the lock.
        """
        tokens: set[str] = set()
        for anc in ancestors(node):
            if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
                break
            if not isinstance(anc, (ast.With, ast.AsyncWith)):
                continue
            for item in anc.items:
                token = self._lock_token(item.context_expr, info)
                if token is not None:
                    tokens.add(token)
        return frozenset(tokens)

    def _lock_token(
        self, expr: ast.expr, info: FunctionInfo | None
    ) -> str | None:
        """``ClassQname.attr`` / ``module.NAME`` for a lock ctx expr."""
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id in ("self", "cls")
            and info is not None
            and info.class_qname is not None
        ):
            if expr.attr in self.lock_attrs.get(info.class_qname, ()):
                return f"{info.class_qname}.{expr.attr}"
            return None
        if isinstance(expr, ast.Name) and info is not None:
            if expr.id in self.module_locks.get(info.module, ()):
                return f"{info.module}.{expr.id}"
        return None

    def effective_lockset(self, node: ast.AST, qname: str) -> frozenset[str]:
        """Lexical lockset at *node* plus *qname*'s entry lockset."""
        info = self.program.table.functions.get(qname)
        return self.lexical_lockset(node, info) | self.entry_locksets.get(
            qname, frozenset()
        )

    # ------------------------------------------------------------------
    # Await points
    # ------------------------------------------------------------------
    def _find_await_points(self) -> dict[str, tuple[AwaitPoint, ...]]:
        from repro.analysis.callgraph import inside_transaction

        out: dict[str, tuple[AwaitPoint, ...]] = {}
        for qname in sorted(self.async_functions):
            info = self.program.table.functions[qname]
            points: list[AwaitPoint] = []
            for node in own_nodes(info.node):
                if isinstance(node, ast.Await):
                    kind = "await"
                elif isinstance(node, ast.AsyncFor):
                    kind = "async-for"
                elif isinstance(node, ast.AsyncWith):
                    kind = "async-with"
                else:
                    continue
                points.append(
                    AwaitPoint(
                        function=qname,
                        path=info.path,
                        lineno=node.lineno,
                        col=node.col_offset,
                        kind=kind,
                        in_transaction=inside_transaction(node),
                        lockset=self.lexical_lockset(node, info),
                    )
                )
            if points:
                out[qname] = tuple(
                    sorted(points, key=lambda p: (p.lineno, p.col))
                )
        return out

    # ------------------------------------------------------------------
    # Spawn edges
    # ------------------------------------------------------------------
    def _find_spawns(self) -> list[SpawnEdge]:
        edges: list[SpawnEdge] = []
        for site in self.program.graph.sites:
            func = site.node.func
            name = (
                func.id
                if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else None
            )
            if name is None:
                continue
            args = site.node.args
            if name in TASK_SPAWN_ATTRS and args:
                edges.append(self._edge(site, "task", args[0]))
            elif name == "gather":
                for arg in args:
                    if not isinstance(arg, ast.Starred):
                        edges.append(self._edge(site, "task", arg))
            elif name == "to_thread" and args:
                edges.append(self._edge(site, "offload", args[0]))
            elif name == "run_in_executor" and len(args) >= 2:
                edges.append(self._edge(site, "offload", args[1]))
            elif name in THREADSAFE_HOPS and args:
                edges.append(self._edge(site, "loop-hop", args[0]))
            elif name == "Thread":
                target = next(
                    (
                        kw.value
                        for kw in site.node.keywords
                        if kw.arg == "target"
                    ),
                    None,
                )
                if target is not None:
                    edges.append(self._edge(site, "thread", target))
        return edges

    def _edge(self, site: CallSite, kind: str, expr: ast.expr) -> SpawnEdge:
        return SpawnEdge(
            site=site,
            kind=kind,
            payload=self._payload_qname(expr, site),
            payload_expr=expr,
        )

    def _payload_qname(self, expr: ast.expr, site: CallSite) -> str | None:
        """Resolve a spawn payload expression to a function qname."""
        table = self.program.table
        caller_info = table.functions.get(site.caller)
        module = self._module_of(site.caller)
        # ``create_task(self._drain(key, q))``: the inner call is a
        # linked call site; its resolution is the payload.
        if isinstance(expr, ast.Call):
            inner = self._site_by_node.get(id(expr))
            return inner.callee if inner is not None else None
        if isinstance(expr, ast.Name):
            nested = f"{site.caller}.<locals>.{expr.id}"
            if nested in table.functions:
                return nested
            qname = table.resolve_name(expr.id, module)
            if qname is not None and qname in table.functions:
                return qname
            return None
        if isinstance(expr, ast.Attribute):
            base = expr.value
            # self.method / cls.method
            if (
                isinstance(base, ast.Name)
                and base.id in ("self", "cls")
                and caller_info is not None
                and caller_info.class_qname is not None
            ):
                cls = table.classes.get(caller_info.class_qname)
                if cls is not None:
                    return table.lookup_method(cls, expr.attr)
            # self.attr.method through the harvested attr type
            if (
                isinstance(base, ast.Attribute)
                and isinstance(base.value, ast.Name)
                and base.value.id == "self"
                and caller_info is not None
                and caller_info.class_qname is not None
            ):
                cls = table.classes.get(caller_info.class_qname)
                if cls is not None:
                    tname = cls.attr_types.get(base.attr)
                    if tname is not None:
                        receiver = table.resolve_class(tname, module)
                        if receiver is not None:
                            return table.lookup_method(receiver, expr.attr)
            # local typed receiver: annotated/constructed variable
            if (
                isinstance(base, ast.Name)
                and caller_info is not None
            ):
                types = self._local_types_of(caller_info)
                tname = types.get(base.id)
                if tname is not None:
                    receiver = table.resolve_class(tname, module)
                    if receiver is not None:
                        resolved = table.lookup_method(receiver, expr.attr)
                        if resolved is not None:
                            return resolved
            name = dotted(expr)
            if name is not None:
                qname = table.resolve_name(name, module)
                if qname is not None and qname in table.functions:
                    return qname
        return None

    def _local_types_of(self, info: FunctionInfo) -> dict[str, str]:
        types = self._local_types_memo.get(info.qname)
        if types is None:
            types = self.program._local_types(
                info.node, info.module, info
            )
            self._local_types_memo[info.qname] = types
        return types

    def _module_of(self, caller: str) -> str:
        if caller.endswith(".<module>"):
            return caller[: -len(".<module>")]
        info = self.program.table.functions.get(caller)
        if info is not None:
            return info.module
        return caller.rsplit(".", 1)[0]

    # ------------------------------------------------------------------
    # Roots
    # ------------------------------------------------------------------
    def spawn_payloads(self, kinds: tuple[str, ...]) -> frozenset[str]:
        """Resolved payload qnames of the given spawn kinds."""
        return frozenset(
            edge.payload
            for edge in self.spawns
            if edge.kind in kinds and edge.payload is not None
        )

    def concurrency_roots(self) -> frozenset[str]:
        """Functions that begin a concurrent context: every resolved
        spawn payload plus each spawning function itself (the spawner
        keeps running concurrently with its payload)."""
        roots = set(
            self.spawn_payloads(("task", "offload", "thread"))
        )
        for edge in self.spawns:
            if edge.kind in ("task", "offload", "thread"):
                roots.add(edge.site.caller)
        return frozenset(roots)

    def thread_context(self) -> frozenset[str]:
        """Functions that may execute on a non-loop thread: the closure
        over resolved call edges from thread/offload payloads, never
        descending into ``async def`` frames (those run on a loop —
        ``asyncio.run`` inside a thread starts that thread's own loop).
        """
        seen: set[str] = set()
        queue = [
            q
            for q in self.spawn_payloads(("thread", "offload"))
            if q not in self.async_functions
        ]
        while queue:
            cur = queue.pop()
            if cur in seen:
                continue
            seen.add(cur)
            for callee in self.program.graph.callees_of(cur):
                if callee not in self.async_functions:
                    queue.append(callee)
        return frozenset(seen)

    # ------------------------------------------------------------------
    # Entry locksets (meet-over-call-sites fixpoint)
    # ------------------------------------------------------------------
    def _infer_entry_locksets(self) -> dict[str, frozenset[str]]:
        table = self.program.table
        graph = self.program.graph
        universe = frozenset(
            f"{cls}.{attr}"
            for cls, attrs in self.lock_attrs.items()
            for attr in attrs
        ) | frozenset(
            f"{module}.{name}"
            for module, names in self.module_locks.items()
            for name in names
        )
        if not universe:
            return {}
        # Entry contexts that provably start lock-free: spawn payloads
        # (a fresh thread/task holds nothing), value-referenced
        # callbacks (invocation context unknown) and call-graph roots.
        forced_empty = set(
            self.spawn_payloads(("task", "offload", "thread", "loop-hop"))
        )
        forced_empty.update(graph.value_refs)
        for qname in table.functions:
            if qname not in graph.in_edges:
                forced_empty.add(qname)
        held: dict[str, frozenset[str]] = {}
        for qname in table.functions:
            held[qname] = (
                frozenset() if qname in forced_empty else universe
            )
        changed = True
        while changed:
            changed = False
            for qname in table.functions:
                if qname in forced_empty:
                    continue
                met: frozenset[str] | None = None
                for site in graph.in_edges.get(qname, []):
                    caller_info = table.functions.get(site.caller)
                    at_site = self.lexical_lockset(site.node, caller_info)
                    at_site |= held.get(site.caller, frozenset())
                    met = at_site if met is None else (met & at_site)
                    if not met:
                        break
                new = met if met is not None else frozenset()
                if new != held[qname]:
                    held[qname] = new
                    changed = True
        return {q: s for q, s in held.items() if s}


def model_for(program: Program) -> ConcurrencyModel:
    """The (memoized) concurrency model of *program*."""
    model = getattr(program, "_concurrency_model", None)
    if model is None:
        model = ConcurrencyModel(program)
        program._concurrency_model = model
    return model
