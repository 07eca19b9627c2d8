"""Per-file analysis context shared by every rule.

:class:`FileContext` owns the parsed AST (with parent back-links), the
source text, and the file's *logical subpackage* — the path component
after the ``repro`` package root (``"core"``, ``"engine"``, ...), used
by the registry to scope rules to the packages whose invariants they
guard.  Files outside any ``repro`` package (e.g. the test fixture
corpus) have no subpackage and are checked by **all** rules, which is
what makes the fixtures exercisable without replicating the tree layout.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

#: Attribute set on every AST node pointing at its parent node.
_PARENT = "_repro_lint_parent"


class SourceError(Exception):
    """The file could not be read or parsed (reported as code E999)."""

    def __init__(self, message: str, line: int = 1, col: int = 0) -> None:
        super().__init__(message)
        self.line = line
        self.col = col


def _link_parents(tree: ast.AST) -> None:
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            setattr(child, _PARENT, node)


def parent_of(node: ast.AST) -> ast.AST | None:
    """The syntactic parent of *node*, or ``None`` at the module root."""
    return getattr(node, _PARENT, None)


def ancestors(node: ast.AST) -> Iterator[ast.AST]:
    """Parents of *node*, innermost first, up to the module."""
    cur = parent_of(node)
    while cur is not None:
        yield cur
        cur = parent_of(cur)


def dotted_name(node: ast.expr) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``.

    Call results and subscripts break the chain (``f().x`` → ``None``)
    because the receiver's identity is no longer a static name.
    """
    parts: list[str] = []
    cur: ast.expr = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if not isinstance(cur, ast.Name):
        return None
    parts.append(cur.id)
    return ".".join(reversed(parts))


def call_name(node: ast.Call) -> str | None:
    """Dotted name of a call's callee, or ``None`` for dynamic callees."""
    return dotted_name(node.func)


def repro_subpackage(path: str) -> str | None:
    """Logical subpackage of *path* within the ``repro`` package.

    ``src/repro/core/mll.py`` → ``"core"``; ``src/repro/cli.py`` →
    ``""`` (package root); paths with no ``repro`` directory component
    → ``None`` (unscoped: every rule applies).
    """
    parts = path.replace("\\", "/").split("/")
    for i in range(len(parts) - 2, -1, -1):
        if parts[i] == "repro":
            rest = parts[i + 1 : -1]
            return rest[0] if rest else ""
    return None


@dataclass(slots=True)
class FileContext:
    """Everything a rule needs to know about one source file."""

    path: str
    source: str
    tree: ast.Module
    subpackage: str | None
    module_name: str
    lines: list[str] = field(default_factory=list)

    @classmethod
    def from_source(cls, path: str, source: str) -> "FileContext":
        """Parse *source*; raises :class:`SourceError` on a syntax error."""
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            raise SourceError(
                f"syntax error: {exc.msg}",
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
            ) from exc
        _link_parents(tree)
        name = path.replace("\\", "/").rsplit("/", 1)[-1]
        return cls(
            path=path,
            source=source,
            tree=tree,
            subpackage=repro_subpackage(path),
            module_name=name,
            lines=source.splitlines(),
        )

    @classmethod
    def from_file(cls, path: str) -> "FileContext":
        """Read and parse *path*; raises :class:`SourceError` on failure."""
        try:
            with open(path, encoding="utf-8") as f:
                source = f.read()
        except OSError as exc:
            raise SourceError(f"cannot read file: {exc}") from exc
        return cls.from_source(path, source)
