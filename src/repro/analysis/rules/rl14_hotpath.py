"""RL14: hot-path performance lint for the numeric kernels.

MLL's insertion-point evaluation scores every point of a call in one
numpy batch because per-element Python dispatch over numpy arrays
would dominate its cost; this rule keeps that property from
regressing.  It runs only over the kernel modules (``core/``) and
flags three anti-patterns that re-introduce interpreter-bound inner
loops:

* **object-dtype arrays** — ``np.array(..., dtype=object)`` (and
  ``empty``/``zeros``/``ones``/``full``) box every element and defeat
  every vectorized sweep downstream;
* **per-element loops over ndarrays inside loops** — a ``for`` that
  walks an ndarray (directly, via ``range(len(a))`` /
  ``range(a.shape[0])``, or ``enumerate(a)``) at loop depth ≥ 2 in the
  CFG, i.e. an O(n) Python loop already nested inside another loop;
* **repeated scalar fancy-indexing** — three or more textually
  identical scalar subscript loads ``a[i]`` of the same ndarray inside
  one natural loop body; hoist the load or vectorize the sweep.

ndarray-ness is tracked syntactically: names assigned from ``np.*`` /
``numpy.*`` calls, or annotated ``ndarray``/``NDArray`` (parameters
included).  That is deliberately shallow — the kernels are small and
fully annotated, and a shallow model keeps the rule cheap enough to
run per-file on every lint.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.callgraph import dotted
from repro.analysis.cfg import CFG, build_cfg, header_walk
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.registry import BaseRule, FileContext, register

_FunctionNode = ast.FunctionDef | ast.AsyncFunctionDef

_ARRAY_CTORS = frozenset(
    {"array", "empty", "zeros", "ones", "full", "asarray"}
)
_NDARRAY_ANNOTATIONS = frozenset({"ndarray", "NDArray"})


@register
class HotPathRule(BaseRule):
    """Keep the numeric kernels free of interpreter-bound inner loops."""

    code = "RL14"
    name = "hot-path-perf"
    summary = (
        "kernel modules must not create object-dtype arrays, walk "
        "ndarrays element-by-element inside nested loops, or repeat "
        "scalar fancy-indexing a vectorized sweep would replace"
    )
    enforced = ("core",)

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call) and _is_object_dtype(node):
                yield self.diag(
                    ctx,
                    node,
                    "object-dtype array construction in a kernel "
                    "module boxes every element and defeats "
                    "vectorization; use a numeric dtype or a plain "
                    "list",
                )
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                yield from self._check_function(ctx, node)

    def _check_function(
        self, ctx: FileContext, func: _FunctionNode
    ) -> Iterator[Diagnostic]:
        arrays = _ndarray_names(func)
        if not arrays:
            return
        cfg = build_cfg(func)
        loops = cfg.natural_loops()
        for stmt in cfg.statements():
            if not isinstance(stmt, (ast.For, ast.AsyncFor)):
                continue
            target = _iterated_array(stmt.iter, arrays)
            if target is None:
                continue
            bid = cfg.block_of_stmt(stmt)
            if bid is not None and cfg.loop_depth(bid) >= 2:
                yield self.diag(
                    ctx,
                    stmt,
                    f"per-element Python loop over ndarray "
                    f"`{target}` inside another loop; hoist or "
                    "replace the inner sweep with a vectorized "
                    "numpy operation",
                )
        scalars = _range_loop_targets(func)
        flagged: set[tuple[int, int, str]] = set()
        for _header, body in loops:
            yield from self._repeated_scalar_loads(
                ctx, cfg, body, arrays, scalars, flagged
            )

    def _repeated_scalar_loads(
        self,
        ctx: FileContext,
        cfg: CFG,
        body: frozenset[int],
        arrays: frozenset[str],
        scalars: frozenset[str],
        flagged: set[tuple[int, int, str]],
    ) -> Iterator[Diagnostic]:
        counts: dict[str, list[ast.Subscript]] = {}
        for bid in sorted(body):
            for stmt in cfg.blocks[bid].statements:
                for node in header_walk(stmt):
                    if not (
                        isinstance(node, ast.Subscript)
                        and isinstance(node.ctx, ast.Load)
                        and isinstance(node.value, ast.Name)
                        and node.value.id in arrays
                        and _is_scalar_index(node.slice, scalars)
                    ):
                        continue
                    counts.setdefault(ast.unparse(node), []).append(
                        node
                    )
        for text, sites in sorted(counts.items()):
            if len(sites) < 3:
                continue
            first = min(
                sites, key=lambda n: (n.lineno, n.col_offset)
            )
            key = (first.lineno, first.col_offset, text)
            if key in flagged:
                continue
            flagged.add(key)
            yield self.diag(
                ctx,
                first,
                f"scalar load `{text}` repeated {len(sites)} times "
                "in one loop body; hoist it to a local or vectorize "
                "the sweep",
            )


def _range_loop_targets(func: _FunctionNode) -> frozenset[str]:
    """Names bound as ``for i in range(...)``/``enumerate(...)`` loop
    variables — the only subscripts we can prove are scalar loads (an
    index that is itself an array is a vectorized gather)."""
    out: set[str] = set()
    for node in ast.walk(func):
        if not isinstance(node, (ast.For, ast.AsyncFor)):
            continue
        if not (
            isinstance(node.iter, ast.Call)
            and dotted(node.iter.func) in ("range", "enumerate")
        ):
            continue
        targets = (
            node.target.elts
            if isinstance(node.target, ast.Tuple)
            else [node.target]
        )
        for target in targets:
            if isinstance(target, ast.Name):
                out.add(target.id)
    return frozenset(out)


def _is_scalar_index(
    index: ast.expr, scalars: frozenset[str]
) -> bool:
    if isinstance(index, ast.Constant):
        return isinstance(index.value, int)
    return isinstance(index, ast.Name) and index.id in scalars


def _is_object_dtype(call: ast.Call) -> bool:
    name = dotted(call.func)
    if name is None:
        return False
    parts = name.split(".")
    if len(parts) != 2 or parts[0] not in ("np", "numpy"):
        return False
    if parts[1] not in _ARRAY_CTORS:
        return False
    for kw in call.keywords:
        if kw.arg != "dtype":
            continue
        if isinstance(kw.value, ast.Name) and kw.value.id == "object":
            return True
        if (
            isinstance(kw.value, ast.Constant)
            and kw.value.value == "object"
        ):
            return True
        if dotted(kw.value) in ("np.object_", "numpy.object_"):
            return True
    return False


def _ndarray_names(func: _FunctionNode) -> frozenset[str]:
    names: set[str] = set()
    args = func.args
    for arg in [
        *args.posonlyargs,
        *args.args,
        *args.kwonlyargs,
    ]:
        if arg.annotation is not None and _is_ndarray_annotation(
            arg.annotation
        ):
            names.add(arg.arg)
    for node in ast.walk(func):
        if isinstance(node, ast.Assign) and isinstance(
            node.value, ast.Call
        ):
            callee = dotted(node.value.func)
            if callee is not None and callee.split(".")[0] in (
                "np",
                "numpy",
            ):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ):
            if _is_ndarray_annotation(node.annotation):
                names.add(node.target.id)
    return frozenset(names)


def _is_ndarray_annotation(annotation: ast.expr) -> bool:
    if isinstance(annotation, ast.Subscript):
        annotation = annotation.value
    name = dotted(annotation)
    if name is None:
        if isinstance(annotation, ast.Constant) and isinstance(
            annotation.value, str
        ):
            return any(
                part in annotation.value
                for part in _NDARRAY_ANNOTATIONS
            )
        return False
    return name.rsplit(".", 1)[-1] in _NDARRAY_ANNOTATIONS


def _iterated_array(
    iter_expr: ast.expr, arrays: frozenset[str]
) -> str | None:
    """The ndarray name *iter_expr* walks element-by-element, if any."""
    if isinstance(iter_expr, ast.Name) and iter_expr.id in arrays:
        return iter_expr.id
    if not isinstance(iter_expr, ast.Call):
        return None
    callee = dotted(iter_expr.func)
    if callee == "enumerate" and iter_expr.args:
        arg = iter_expr.args[0]
        if isinstance(arg, ast.Name) and arg.id in arrays:
            return arg.id
        return None
    if callee == "range" and len(iter_expr.args) == 1:
        arg = iter_expr.args[0]
        if (
            isinstance(arg, ast.Call)
            and dotted(arg.func) == "len"
            and arg.args
            and isinstance(arg.args[0], ast.Name)
            and arg.args[0].id in arrays
        ):
            return arg.args[0].id
        if (
            isinstance(arg, ast.Subscript)
            and isinstance(arg.value, ast.Attribute)
            and arg.value.attr == "shape"
            and isinstance(arg.value.value, ast.Name)
            and arg.value.value.id in arrays
            and isinstance(arg.slice, ast.Constant)
        ):
            return arg.value.value.id
    return None
