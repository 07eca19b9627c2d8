"""Pluggable rule registry.

A rule is a class with a ``code`` (``"RL1"``), a short ``name``, a
``summary`` for ``--list-rules``, an ``enforced`` scope (the ``repro``
subpackages whose invariants it guards, or ``None`` for everywhere),
and a ``check(ctx)`` generator yielding
:class:`~repro.analysis.diagnostics.Diagnostic` records.

Rules self-register with the :func:`register` decorator at import time;
:mod:`repro.analysis.rules` imports every rule module, so importing
that package once populates the registry.  Third-party or experimental
rules can register the same way without touching the runner.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Protocol, Type

from repro.analysis.context import FileContext
from repro.analysis.diagnostics import Diagnostic

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.callgraph import Program


class Rule(Protocol):
    """Interface every registered rule must satisfy."""

    code: str
    name: str
    summary: str
    enforced: tuple[str, ...] | None

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        """Yield findings for one file (already scope-filtered)."""
        ...  # pragma: no cover - protocol body


class BaseRule:
    """Convenience base: diagnostic construction bound to the rule."""

    code: str = "RL?"
    name: str = "unnamed"
    summary: str = ""
    enforced: tuple[str, ...] | None = None

    def diag(
        self, ctx: FileContext, node: ast.AST, message: str
    ) -> Diagnostic:
        """A :class:`Diagnostic` at *node* carrying this rule's identity."""
        return Diagnostic(
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            code=self.code,
            rule=self.name,
            message=message,
        )

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        raise NotImplementedError  # pragma: no cover - abstract

    def applies_to(self, ctx: FileContext) -> bool:
        """Scope filter: unscoped files (fixtures) get every rule."""
        if self.enforced is None or ctx.subpackage is None:
            return True
        return ctx.subpackage in self.enforced


class BaseProgramRule:
    """Base for whole-program (interprocedural) rules.

    Program rules see the linked :class:`~repro.analysis.callgraph.Program`
    — symbol table, call graph, and (via
    :mod:`repro.analysis.dataflow`) effect summaries — instead of a
    single file.  They only run under ``repro lint --interprocedural``;
    findings still flow through each file's suppression table, so the
    in-place ``# repro-lint: disable=RL7 -- why`` mechanism works
    unchanged.
    """

    code: str = "RL?"
    name: str = "unnamed"
    summary: str = ""
    enforced: tuple[str, ...] | None = None

    def diag_at(
        self, path: str, line: int, col: int, message: str
    ) -> Diagnostic:
        """A :class:`Diagnostic` at an explicit program location."""
        return Diagnostic(
            path=path,
            line=line,
            col=col,
            code=self.code,
            rule=self.name,
            message=message,
        )

    def check_program(self, program: "Program") -> Iterator[Diagnostic]:
        raise NotImplementedError  # pragma: no cover - abstract


_REGISTRY: dict[str, BaseRule] = {}
_PROGRAM_REGISTRY: dict[str, BaseProgramRule] = {}


def register(cls: Type[BaseRule]) -> Type[BaseRule]:
    """Class decorator adding one instance of *cls* to the registry."""
    inst = cls()
    if inst.code in _REGISTRY:  # pragma: no cover - registration bug
        raise ValueError(f"duplicate rule code {inst.code!r}")
    _REGISTRY[inst.code] = inst
    return cls


def register_program(cls: Type[BaseProgramRule]) -> Type[BaseProgramRule]:
    """Class decorator adding one program rule to the registry."""
    inst = cls()
    if (
        inst.code in _PROGRAM_REGISTRY or inst.code in _REGISTRY
    ):  # pragma: no cover - registration bug
        raise ValueError(f"duplicate rule code {inst.code!r}")
    _PROGRAM_REGISTRY[inst.code] = inst
    return cls


def _ensure_loaded() -> None:
    # Deferred so registry import does not cycle with the rule modules.
    import repro.analysis.rules  # noqa: F401


def all_rules() -> list[BaseRule]:
    """Every registered per-file rule, sorted by code."""
    _ensure_loaded()
    return [_REGISTRY[code] for code in sorted(_REGISTRY)]


def all_program_rules() -> list[BaseProgramRule]:
    """Every registered whole-program rule, sorted by code."""
    _ensure_loaded()
    return [_PROGRAM_REGISTRY[code] for code in sorted(_PROGRAM_REGISTRY)]


def program_codes() -> frozenset[str]:
    """Codes that only fire under ``--interprocedural``."""
    _ensure_loaded()
    return frozenset(_PROGRAM_REGISTRY)


def known_codes() -> frozenset[str]:
    """The set of valid rule codes (for suppression validation)."""
    _ensure_loaded()
    return frozenset(_REGISTRY) | frozenset(_PROGRAM_REGISTRY) | {"E999"}


def _validate_codes(codes: Iterable[str]) -> set[str]:
    wanted = set(codes)
    unknown = wanted - set(_REGISTRY) - set(_PROGRAM_REGISTRY)
    if unknown:
        raise KeyError(f"unknown rule code(s): {', '.join(sorted(unknown))}")
    return wanted


def select_rules(
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
) -> list[BaseRule]:
    """Per-file registry subset for ``--select`` / ``--ignore``.

    Unknown codes raise :class:`KeyError` so typos fail loudly instead
    of silently disabling a gate.  Program-rule codes are *valid* here
    (``--select RL7`` should not be a usage error) but naturally match
    no per-file rule.
    """
    _ensure_loaded()
    rules = all_rules()
    if select is not None:
        wanted = _validate_codes(select)
        rules = [r for r in rules if r.code in wanted]
    if ignore is not None:
        dropped = _validate_codes(ignore)
        rules = [r for r in rules if r.code not in dropped]
    return rules


def select_program_rules(
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
) -> list[BaseProgramRule]:
    """Program-rule subset for ``--select`` / ``--ignore``."""
    _ensure_loaded()
    rules = all_program_rules()
    if select is not None:
        wanted = _validate_codes(select)
        rules = [r for r in rules if r.code in wanted]
    if ignore is not None:
        dropped = _validate_codes(ignore)
        rules = [r for r in rules if r.code not in dropped]
    return rules


# Re-exported decorator-friendly alias used by rule modules.
rule = register

CheckFn = Callable[[FileContext], Iterator[Diagnostic]]
