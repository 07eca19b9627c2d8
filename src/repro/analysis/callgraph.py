"""Whole-program symbol table and call graph.

PR 4's rules are pure functions of one file's AST; the invariants they
guard are not.  A helper that mutates the :class:`~repro.db.design.
Design` two calls deep, or a closure shipped to a worker process, is
invisible to any per-file rule.  This module builds the whole-program
view the interprocedural rules (RL6-RL8) and the effect inference
(:mod:`repro.analysis.dataflow`) run on:

* :class:`SymbolTable` — every function, method and class defined in
  the analyzed tree, keyed by *qualified name* (``repro.db.design.
  Design.place``), plus per-module import aliases, module-level
  mutable globals, and light type bindings (parameter annotations,
  ``Class(...)`` constructor assignments, ``self.attr`` types
  harvested from ``__init__``).
* :class:`CallGraph` — one :class:`CallSite` per syntactic call, with
  the callee resolved through the symbol table where a static name
  chain permits (dotted names, ``self.``/``cls.`` methods, annotated
  receivers, import aliases, and a unique-bare-name fallback).  Call
  sites record whether they sit lexically inside a ``with
  Transaction(...)`` block — the bit RL7's protection propagation
  consumes.
* :class:`Program` — the bundle (contexts + table + graph) every
  program rule receives, with reachability queries and ``--dot`` /
  ``--json`` exports behind ``repro callgraph``.

Qualified names follow CPython's ``__qualname__`` rules (nested
functions get ``outer.<locals>.inner``), so a finding or an exported
node names the same function a traceback would.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.analysis.context import FileContext, SourceError, ancestors

#: Receiver-class names whose methods we never try to resolve through
#: the unique-bare-name fallback (too generic to be meaningful).
_AMBIGUOUS_METHOD_NAMES = frozenset(
    {"run", "get", "add", "update", "pop", "append", "close", "open",
     "merge", "check", "next", "send", "read", "write", "copy"}
)

_FunctionNode = ast.FunctionDef | ast.AsyncFunctionDef


def module_name_of(path: str) -> str:
    """Dotted module name of *path*.

    ``src/repro/db/design.py`` → ``"repro.db.design"``; a file outside
    any ``repro`` package keeps its stem (fixtures form one-file
    modules of their own).
    """
    parts = path.replace("\\", "/").split("/")
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            mods = list(parts[i:])
            mods[-1] = mods[-1][: -len(".py")]
            if mods[-1] == "__init__":
                mods.pop()
            return ".".join(mods)
    return parts[-1][: -len(".py")] if parts[-1].endswith(".py") else parts[-1]


# ----------------------------------------------------------------------
# Records
# ----------------------------------------------------------------------
@dataclass(slots=True)
class FunctionInfo:
    """One function or method definition."""

    qname: str
    """Fully qualified: ``module.Class.method`` / ``module.fn`` /
    ``module.outer.<locals>.inner`` (CPython qualname rules)."""

    module: str
    path: str
    lineno: int
    name: str
    class_qname: str | None
    """Qualified name of the enclosing class for methods, else None."""

    nested: bool
    """True for functions defined inside another function (closures)."""

    node: _FunctionNode = field(repr=False)


@dataclass(slots=True)
class ClassInfo:
    """One class definition, with its method map and mutable attrs."""

    qname: str
    module: str
    path: str
    lineno: int
    name: str
    bases: tuple[str, ...]
    """Base-class dotted names as written (resolved lazily)."""

    methods: dict[str, str] = field(default_factory=dict)
    """method name → function qname."""

    mutable_attrs: dict[str, int] = field(default_factory=dict)
    """Class-level mutable container attributes → definition line."""

    attr_types: dict[str, str] = field(default_factory=dict)
    """``self.attr`` → class qname, harvested from annotated
    assignments and constructor calls in method bodies."""


@dataclass(slots=True)
class GlobalVar:
    """A module-level binding (RL8 cares about the mutable ones)."""

    module: str
    name: str
    path: str
    lineno: int
    mutable: bool


@dataclass(slots=True)
class CallSite:
    """One syntactic call, with its resolution (when possible)."""

    caller: str
    """Qualified name of the enclosing function (``module.<module>``
    for module-level calls)."""

    callee: str | None
    """Qualified name of the resolved target, else ``None``."""

    raw: str
    """The call as written (dotted name or ``<dynamic>``)."""

    path: str
    lineno: int
    col: int
    in_transaction: bool
    """Lexically inside ``with Transaction(...)`` / ``.transaction()``."""

    node: ast.Call = field(repr=False)


# ----------------------------------------------------------------------
# Mutable-container syntax shared with RL8
# ----------------------------------------------------------------------
_MUTABLE_CTORS = frozenset(
    {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter", "deque"}
)


def is_mutable_container_expr(node: ast.expr) -> bool:
    """Syntactically a mutable container: display, comp, or ctor call."""
    if isinstance(node, (ast.Dict, ast.List, ast.Set, ast.ListComp,
                         ast.SetComp, ast.DictComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None
        )
        return name in _MUTABLE_CTORS
    return False


def _is_transaction_ctx(expr: ast.expr) -> bool:
    """``Transaction(...)`` or ``<x>.transaction()`` context expression."""
    if not isinstance(expr, ast.Call):
        return False
    func = expr.func
    if isinstance(func, ast.Name) and func.id == "Transaction":
        return True
    return isinstance(func, ast.Attribute) and func.attr in (
        "Transaction", "transaction",
    )


def inside_transaction(node: ast.AST) -> bool:
    """Is *node* lexically inside a ``with Transaction(...)`` block?"""
    for anc in ancestors(node):
        if isinstance(anc, ast.With):
            for item in anc.items:
                if _is_transaction_ctx(item.context_expr):
                    return True
    return False


def own_nodes(func_node: _FunctionNode) -> Iterator[ast.AST]:
    """Every node of *func_node*'s body, excluding nested ``def``
    subtrees (they link under their own qualified names).  Lambdas and
    comprehensions stay with their enclosing function."""
    stack: list[ast.AST] = list(ast.iter_child_nodes(func_node))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def dotted(node: ast.expr) -> str | None:
    """``a.b.c`` for a pure Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    cur: ast.expr = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if not isinstance(cur, ast.Name):
        return None
    parts.append(cur.id)
    return ".".join(reversed(parts))


# ----------------------------------------------------------------------
# Symbol table
# ----------------------------------------------------------------------
class SymbolTable:
    """Definitions, imports and light type bindings of a program."""

    def __init__(self) -> None:
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.globals: dict[tuple[str, str], GlobalVar] = {}
        """(module, name) → module-level binding."""
        self.module_defs: dict[str, dict[str, str]] = {}
        """module → top-level name → qname (functions and classes)."""
        self.imports: dict[str, dict[str, str]] = {}
        """module → alias → imported dotted target."""
        self._by_bare_name: dict[str, list[str]] = {}
        self._class_by_name: dict[str, list[str]] = {}

    # ------------------------------------------------------------------
    def add_file(self, ctx: FileContext) -> None:
        """Index every definition of one parsed file."""
        module = module_name_of(ctx.path)
        defs = self.module_defs.setdefault(module, {})
        imports = self.imports.setdefault(module, {})
        self._index_imports(ctx.tree, imports)
        self._index_scope(ctx, ctx.tree, module, prefix=module,
                          class_qname=None, nested=False, defs=defs)
        self._index_globals(ctx, module)

    def _index_imports(
        self, tree: ast.Module, imports: dict[str, str]
    ) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imports[alias.asname or alias.name.split(".")[0]] = (
                        alias.name
                    )
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    imports[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )

    def _index_scope(
        self,
        ctx: FileContext,
        scope: ast.AST,
        module: str,
        prefix: str,
        class_qname: str | None,
        nested: bool,
        defs: dict[str, str] | None,
    ) -> None:
        for stmt in ast.iter_child_nodes(scope):
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qname = f"{prefix}.{stmt.name}"
                info = FunctionInfo(
                    qname=qname,
                    module=module,
                    path=ctx.path,
                    lineno=stmt.lineno,
                    name=stmt.name,
                    class_qname=class_qname,
                    nested=nested,
                    node=stmt,
                )
                self.functions[qname] = info
                self._by_bare_name.setdefault(stmt.name, []).append(qname)
                if defs is not None:
                    defs[stmt.name] = qname
                if class_qname is not None:
                    self.classes[class_qname].methods[stmt.name] = qname
                self._index_scope(
                    ctx, stmt, module, prefix=f"{qname}.<locals>",
                    class_qname=None, nested=True, defs=None,
                )
            elif isinstance(stmt, ast.ClassDef):
                qname = f"{prefix}.{stmt.name}"
                bases = tuple(
                    b for b in (dotted(base) for base in stmt.bases)
                    if b is not None
                )
                cls = ClassInfo(
                    qname=qname,
                    module=module,
                    path=ctx.path,
                    lineno=stmt.lineno,
                    name=stmt.name,
                    bases=bases,
                )
                self.classes[qname] = cls
                self._class_by_name.setdefault(stmt.name, []).append(qname)
                if defs is not None:
                    defs[stmt.name] = qname
                self._index_class_body(ctx, stmt, module, cls)
            else:
                # Other statements may still nest defs (e.g. under if
                # TYPE_CHECKING); index them at the same prefix.
                if isinstance(stmt, (ast.If, ast.Try, ast.With)):
                    self._index_scope(
                        ctx, stmt, module, prefix=prefix,
                        class_qname=class_qname, nested=nested, defs=defs,
                    )

    def _index_class_body(
        self, ctx: FileContext, node: ast.ClassDef, module: str,
        cls: ClassInfo,
    ) -> None:
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                pass  # handled by the recursive call below
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name) and (
                        is_mutable_container_expr(stmt.value)
                    ):
                        cls.mutable_attrs[target.id] = stmt.lineno
            elif isinstance(stmt, ast.AnnAssign):
                if (
                    isinstance(stmt.target, ast.Name)
                    and stmt.value is not None
                    and is_mutable_container_expr(stmt.value)
                ):
                    cls.mutable_attrs[stmt.target.id] = stmt.lineno
        self._index_scope(
            ctx, node, module, prefix=cls.qname, class_qname=cls.qname,
            nested=False, defs=None,
        )
        self._harvest_attr_types(cls)

    def _index_globals(self, ctx: FileContext, module: str) -> None:
        for stmt in ctx.tree.body:
            targets: list[ast.expr] = []
            value: ast.expr | None = None
            if isinstance(stmt, ast.Assign):
                targets, value = list(stmt.targets), stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            for target in targets:
                if isinstance(target, ast.Name) and value is not None:
                    self.globals[(module, target.id)] = GlobalVar(
                        module=module,
                        name=target.id,
                        path=ctx.path,
                        lineno=stmt.lineno,
                        mutable=is_mutable_container_expr(value),
                    )

    def _harvest_attr_types(self, cls: ClassInfo) -> None:
        """``self.attr`` class-name bindings from the method bodies."""
        for mname in sorted(cls.methods):
            info = self.functions[cls.methods[mname]]
            param_types = self._param_annotations(info.node)
            for node in ast.walk(info.node):
                target: ast.expr | None = None
                value: ast.expr | None = None
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target, value = node.targets[0], node.value
                elif isinstance(node, ast.AnnAssign):
                    target, value = node.target, node.value
                    if node.annotation is not None:
                        tname = _annotation_class_name(node.annotation)
                        if (
                            tname is not None
                            and isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            cls.attr_types.setdefault(target.attr, tname)
                            continue
                if (
                    target is None
                    or value is None
                    or not isinstance(target, ast.Attribute)
                    or not isinstance(target.value, ast.Name)
                    or target.value.id != "self"
                ):
                    continue
                tname = _class_of_expr(value, param_types)
                if tname is not None:
                    cls.attr_types.setdefault(target.attr, tname)

    @staticmethod
    def _param_annotations(node: _FunctionNode) -> dict[str, str]:
        out: dict[str, str] = {}
        args = node.args
        for arg in (
            list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        ):
            tname = _annotation_class_name(arg.annotation)
            if tname is not None:
                out[arg.arg] = tname
        return out

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def resolve_class(self, name: str, module: str) -> ClassInfo | None:
        """A class by local/dotted/imported name, seen from *module*."""
        qname = self.resolve_name(name, module)
        if qname is not None and qname in self.classes:
            return self.classes[qname]
        bare = name.rsplit(".", 1)[-1]
        candidates = self._class_by_name.get(bare, [])
        if len(candidates) == 1:
            return self.classes[candidates[0]]
        return None

    def resolve_name(self, name: str, module: str) -> str | None:
        """Resolve a (possibly dotted) name to a definition qname.

        Follows local definitions first, then import aliases, then one
        hop of package re-export (``from repro.engine import
        legalize_sharded`` where the package ``__init__`` itself
        imports the symbol from its defining module).
        """
        if name in self.functions or name in self.classes:
            return name
        head, _, rest = name.partition(".")
        defs = self.module_defs.get(module, {})
        imports = self.imports.get(module, {})
        target = defs.get(head) or imports.get(head)
        if target is None:
            return None
        for _hop in range(3):
            full = f"{target}.{rest}" if rest else target
            if full in self.functions or full in self.classes:
                return full
            # The target may be a module/package whose namespace holds
            # the rest of the chain (a def or a re-exporting import).
            tail_head, _, tail_rest = rest.partition(".") if rest else (
                "", "", ""
            )
            if not tail_head:
                # Bare target that is itself a re-exported symbol:
                # split at the last dot and follow the defining module.
                if "." not in target:
                    return None
                mod, attr = target.rsplit(".", 1)
                hop = self.module_defs.get(mod, {}).get(attr) or (
                    self.imports.get(mod, {}).get(attr)
                )
                if hop is None or hop == target:
                    return None
                target = hop
                continue
            next_defs = self.module_defs.get(target, {})
            next_imports = self.imports.get(target, {})
            hop = next_defs.get(tail_head) or next_imports.get(tail_head)
            if hop is None:
                return None
            target, rest = hop, tail_rest
        return None

    def lookup_method(self, cls: ClassInfo, name: str) -> str | None:
        """A method qname on *cls* or (by name) its static base chain."""
        seen: list[str] = []
        stack = [cls]
        while stack:
            cur = stack.pop(0)
            if cur.qname in seen:
                continue
            seen.append(cur.qname)
            if name in cur.methods:
                return cur.methods[name]
            for base in cur.bases:
                resolved = self.resolve_class(base, cur.module)
                if resolved is not None:
                    stack.append(resolved)
        return None

    def unique_function(self, bare_name: str) -> str | None:
        """The only function of that bare name in the program, if any."""
        if bare_name in _AMBIGUOUS_METHOD_NAMES:
            return None
        candidates = self._by_bare_name.get(bare_name, [])
        return candidates[0] if len(candidates) == 1 else None


def _annotation_class_name(node: ast.expr | None) -> str | None:
    """The class named by a simple annotation (``Design``, ``"Design"``,
    ``Design | None``), else ``None``."""
    if node is None:
        return None
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return dotted(node)
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        head = node.value.split("|", 1)[0].strip()
        return head.split("[", 1)[0].strip() or None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        left = _annotation_class_name(node.left)
        return left if left not in (None, "None") else (
            _annotation_class_name(node.right)
        )
    if isinstance(node, ast.Subscript):
        # Optional[Design] / "Optional[Design]" style
        if isinstance(node.value, ast.Name) and node.value.id == "Optional":
            return _annotation_class_name(node.slice)
    return None


def _class_of_expr(
    value: ast.expr, param_types: dict[str, str]
) -> str | None:
    """Class name constructed/forwarded by *value*, else ``None``."""
    if isinstance(value, ast.Call):
        name = dotted(value.func)
        if name is not None and name.rsplit(".", 1)[-1][:1].isupper():
            return name
        return None
    if isinstance(value, ast.Name):
        return param_types.get(value.id)
    return None


# ----------------------------------------------------------------------
# Call graph
# ----------------------------------------------------------------------
class CallGraph:
    """Resolved call edges plus reachability queries."""

    def __init__(self) -> None:
        self.sites: list[CallSite] = []
        self.out_edges: dict[str, list[CallSite]] = {}
        self.in_edges: dict[str, list[CallSite]] = {}
        self.value_refs: dict[str, list[tuple[str, int]]] = {}
        """qname → (path, line) of non-call references (callbacks)."""

    def add(self, site: CallSite) -> None:
        self.sites.append(site)
        self.out_edges.setdefault(site.caller, []).append(site)
        if site.callee is not None:
            self.in_edges.setdefault(site.callee, []).append(site)

    def add_value_ref(self, qname: str, path: str, lineno: int) -> None:
        self.value_refs.setdefault(qname, []).append((path, lineno))

    # ------------------------------------------------------------------
    def callees_of(self, qname: str) -> list[str]:
        """Resolved callee qnames, deduplicated, in first-seen order."""
        out: list[str] = []
        for site in self.out_edges.get(qname, []):
            if site.callee is not None and site.callee not in out:
                out.append(site.callee)
        return out

    def callers_of(self, qname: str) -> list[str]:
        out: list[str] = []
        for site in self.in_edges.get(qname, []):
            if site.caller not in out:
                out.append(site.caller)
        return out

    def reachable_from(self, roots: Sequence[str]) -> list[str]:
        """Transitive closure over resolved edges (roots included)."""
        seen: list[str] = []
        seen_set: set[str] = set()
        queue = list(roots)
        while queue:
            cur = queue.pop(0)
            if cur in seen_set:
                continue
            seen_set.add(cur)
            seen.append(cur)
            queue.extend(self.callees_of(cur))
        return seen

    def is_root(self, qname: str) -> bool:
        """No in-edges and never referenced as a value (callback)."""
        return qname not in self.in_edges and qname not in self.value_refs


# ----------------------------------------------------------------------
# The program bundle
# ----------------------------------------------------------------------
class Program:
    """Parsed files + symbol table + call graph: the unit program
    rules and effect inference operate on."""

    def __init__(self) -> None:
        self.contexts: dict[str, FileContext] = {}
        self.table = SymbolTable()
        self.graph = CallGraph()

    @classmethod
    def build(cls, contexts: Sequence[FileContext]) -> "Program":
        program = cls()
        for ctx in contexts:
            program.contexts[ctx.path] = ctx
            program.table.add_file(ctx)
        for ctx in contexts:
            program._link_file(ctx)
        return program

    @classmethod
    def from_paths(cls, paths: Sequence[str]) -> "Program":
        """Parse and link *paths*, skipping unparseable files."""
        contexts: list[FileContext] = []
        for path in paths:
            try:
                contexts.append(FileContext.from_file(path))
            except SourceError:
                continue  # already surfaced as E999 by the runner
        return cls.build(contexts)

    # ------------------------------------------------------------------
    # Linking
    # ------------------------------------------------------------------
    def _link_file(self, ctx: FileContext) -> None:
        module = module_name_of(ctx.path)
        module_qname = f"{module}.<module>"
        for func_qname, info in sorted(self.table.functions.items()):
            if info.path != ctx.path:
                continue
            self._link_scope(ctx, info.node, func_qname, module, info)
        # Module-level calls and callback references (outside any def).
        for node in self._toplevel_nodes(ctx.tree):
            if isinstance(node, ast.Call):
                self._link_call(ctx, node, module_qname, module, None)
            elif isinstance(node, ast.Name) and isinstance(
                node.ctx, ast.Load
            ):
                self._link_value_ref(ctx, node, module)

    def _toplevel_nodes(self, tree: ast.Module) -> Iterator[ast.AST]:
        stack: list[ast.AST] = list(ast.iter_child_nodes(tree))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # Decorators and defaults evaluate at module scope.
                stack.extend(node.decorator_list)
                stack.extend(node.args.defaults)
                stack.extend(
                    d for d in node.args.kw_defaults if d is not None
                )
                continue
            yield node
            stack.extend(ast.iter_child_nodes(node))

    def _link_scope(
        self,
        ctx: FileContext,
        func_node: _FunctionNode,
        caller: str,
        module: str,
        info: FunctionInfo,
    ) -> None:
        local_types = self._local_types(func_node, module, info)
        for node in own_nodes(func_node):
            if isinstance(node, ast.Call):
                self._link_call(ctx, node, caller, module, local_types)
            elif isinstance(node, ast.Name) and isinstance(
                node.ctx, ast.Load
            ):
                self._link_value_ref(ctx, node, module)

    def _link_value_ref(
        self, ctx: FileContext, node: ast.Name, module: str
    ) -> None:
        """A bare Name that is not the callee of a call: a potential
        callback reference (``set_defaults(func=_cmd_run)``)."""
        from repro.analysis.context import parent_of

        parent = parent_of(node)
        if isinstance(parent, ast.Call) and parent.func is node:
            return  # it IS the callee; the call edge covers it
        qname = self.table.resolve_name(node.id, module)
        if qname is not None and qname in self.table.functions:
            self.graph.add_value_ref(qname, ctx.path, node.lineno)

    def _local_types(
        self, func_node: _FunctionNode, module: str, info: FunctionInfo
    ) -> dict[str, str]:
        """Name → class-name bindings visible inside *func_node*."""
        types = SymbolTable._param_annotations(func_node)
        for node in ast.walk(func_node):
            target: ast.expr | None = None
            value: ast.expr | None = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign):
                target = node.target
                value = node.value
                tname = _annotation_class_name(node.annotation)
                if tname is not None and isinstance(target, ast.Name):
                    types.setdefault(target.id, tname)
                    continue
            elif isinstance(node, ast.With):
                for item in node.items:
                    if (
                        isinstance(item.optional_vars, ast.Name)
                        and isinstance(item.context_expr, ast.Call)
                    ):
                        tname = _class_of_expr(item.context_expr, types)
                        if tname is not None:
                            types.setdefault(item.optional_vars.id, tname)
                continue
            if target is None or value is None:
                continue
            if isinstance(target, ast.Name):
                tname = _class_of_expr(value, types)
                if tname is not None:
                    types.setdefault(target.id, tname)
        return types

    # ------------------------------------------------------------------
    def _link_call(
        self,
        ctx: FileContext,
        node: ast.Call,
        caller: str,
        module: str,
        local_types: dict[str, str] | None,
    ) -> None:
        raw = dotted(node.func) or "<dynamic>"
        callee = self._resolve_callee(node, caller, module, local_types)
        self.graph.add(
            CallSite(
                caller=caller,
                callee=callee,
                raw=raw,
                path=ctx.path,
                lineno=node.lineno,
                col=node.col_offset,
                in_transaction=inside_transaction(node),
                node=node,
            )
        )

    def _resolve_callee(
        self,
        node: ast.Call,
        caller: str,
        module: str,
        local_types: dict[str, str] | None,
    ) -> str | None:
        func = node.func
        caller_info = self.table.functions.get(caller)
        # Plain name: nested def, module def, or import.
        if isinstance(func, ast.Name):
            if caller_info is not None:
                nested = f"{caller}.<locals>.{func.id}"
                if nested in self.table.functions:
                    return nested
            qname = self.table.resolve_name(func.id, module)
            if qname is None:
                return None
            return self._constructor_of(qname) or qname
        if not isinstance(func, ast.Attribute):
            return None
        attr = func.attr
        base = func.value
        # self.meth() / cls.meth() — `self` is also honored inside
        # functions nested in a method (the closure closes over it).
        if isinstance(base, ast.Name) and base.id in ("self", "cls"):
            cls = self._self_class_of(caller_info)
            if cls is not None:
                resolved = self.table.lookup_method(cls, attr)
                if resolved is not None:
                    return resolved
        # mod.fn() / pkg.mod.fn() / ClassName.method(...)
        base_dotted = dotted(base)
        if base_dotted is not None:
            qname = self.table.resolve_name(f"{base_dotted}.{attr}", module)
            if qname is not None and qname in self.table.functions:
                return qname
        # typed receiver: parameter annotation / constructor assignment
        type_name: str | None = None
        if isinstance(base, ast.Name) and local_types is not None:
            type_name = local_types.get(base.id)
        elif isinstance(base, ast.Call):
            # chained constructor call: ``Legalizer(design, cfg).run()``
            type_name = _class_of_expr(base, local_types or {})
        elif (
            isinstance(base, ast.Attribute)
            and isinstance(base.value, ast.Name)
            and base.value.id == "self"
        ):
            cls = self._self_class_of(caller_info)
            if cls is not None:
                type_name = cls.attr_types.get(base.attr)
        if type_name is not None:
            receiver = self.table.resolve_class(type_name, module)
            if receiver is not None:
                resolved = self.table.lookup_method(receiver, attr)
                if resolved is not None:
                    return resolved
        # Unique-bare-name fallback (skipped for generic names).
        return self.table.unique_function(attr)

    def _self_class_of(
        self, info: FunctionInfo | None
    ) -> ClassInfo | None:
        """The class ``self`` names in *info*'s body.

        For a method that is its enclosing class; for a function
        nested inside a method it is the method's class (the closure
        closes over the method's ``self``), unless a nested def along
        the way re-binds ``self`` as its own parameter."""
        while info is not None:
            if info.class_qname is not None:
                return self.table.classes.get(info.class_qname)
            if not info.nested:
                return None
            args = info.node.args
            if any(
                a.arg == "self"
                for a in (
                    list(args.posonlyargs)
                    + list(args.args)
                    + list(args.kwonlyargs)
                )
            ):
                return None  # the closure re-binds ``self``
            qname = info.qname.rsplit(".<locals>.", 1)[0]
            info = self.table.functions.get(qname)
        return None

    def _constructor_of(self, qname: str) -> str | None:
        """``Class(...)`` resolves to ``Class.__init__`` when defined."""
        cls = self.table.classes.get(qname)
        if cls is None:
            return None
        return self.table.lookup_method(cls, "__init__") or qname

    # ------------------------------------------------------------------
    # Exports
    # ------------------------------------------------------------------
    def to_json(self, effects: "dict[str, object] | None" = None) -> str:
        """Stable JSON document of nodes and resolved edges."""
        nodes = [
            {
                "qname": info.qname,
                "path": info.path,
                "line": info.lineno,
                "class": info.class_qname,
                "nested": info.nested,
            }
            for _, info in sorted(self.table.functions.items())
        ]
        if effects is not None:
            by_qname = {n["qname"]: n for n in nodes}
            for qname in sorted(effects):
                summary = effects[qname]
                if qname in by_qname:
                    by_qname[qname]["effects"] = summary
        edges = sorted(
            {
                (site.caller, site.callee)
                for site in self.graph.sites
                if site.callee is not None
            }
        )
        document = {
            "version": 1,
            "tool": "repro-callgraph",
            "functions": nodes,
            "edges": [{"caller": c, "callee": e} for c, e in edges],
        }
        return json.dumps(document, indent=2)

    def to_dot(self) -> str:
        """Graphviz export of the resolved edges."""
        lines = ["digraph callgraph {", "  rankdir=LR;", "  node [shape=box];"]
        edges = sorted(
            {
                (site.caller, site.callee)
                for site in self.graph.sites
                if site.callee is not None
            }
        )
        names: list[str] = []
        for caller, callee in edges:
            for name in (caller, callee):
                if name not in names:
                    names.append(name)
        for name in sorted(names):
            lines.append(f'  "{name}";')
        for caller, callee in edges:
            lines.append(f'  "{caller}" -> "{callee}";')
        lines.append("}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# ``repro callgraph`` CLI
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro callgraph",
        description=(
            "whole-program call graph over the repro tree "
            "(symbol table + resolved call edges)"
        ),
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to analyze (default: src)",
    )
    parser.add_argument(
        "--dot", action="store_true",
        help="emit Graphviz DOT instead of JSON",
    )
    parser.add_argument(
        "--json", dest="json_out", action="store_true",
        help="emit JSON (the default)",
    )
    parser.add_argument(
        "--effects", action="store_true",
        help="annotate each function with its inferred effect summary "
             "(JSON output only)",
    )
    return parser


def run(argv: Sequence[str] | None = None) -> int:
    """The ``repro callgraph`` entry point."""
    args = build_parser().parse_args(argv)
    from repro.analysis.runner import discover_files

    try:
        files = discover_files(args.paths)
    except FileNotFoundError as exc:
        print(f"repro-callgraph: error: {exc}", file=sys.stderr)
        return 2
    program = Program.from_paths(files)
    if args.dot:
        print(program.to_dot())
        return 0
    effects: dict[str, object] | None = None
    if args.effects:
        from repro.analysis.dataflow import infer_effects

        summaries = infer_effects(program)
        effects = {
            qname: {
                "local": sorted(summary.local),
                "transitive": sorted(summary.transitive),
            }
            for qname, summary in sorted(summaries.items())
        }
    print(program.to_json(effects=effects))
    return 0
