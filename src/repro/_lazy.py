"""PEP 562 lazy package surfaces.

``repro``, ``repro.core`` and ``repro.engine`` re-export names from their
submodules.  Importing every submodule up front would make any
``repro`` command pay for numpy and the sharded engine, which only
legalization needs.  Instead each package lists its re-exports in one
table, ``{name: defining module}``, and :func:`lazy_exports` turns that
table into the package's ``__getattr__``, ``__dir__`` and ``__all__``.
The same names stay visible to mypy and the in-tree call graph as
``if TYPE_CHECKING:`` imports in the package.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any


def lazy_exports(namespace: dict[str, Any], table: dict[str, str]) -> None:
    """Give the package whose globals are *namespace* a ``__getattr__``
    and ``__dir__`` that resolve each name of *table* from its module,
    and an ``__all__`` listing those names.

    A name is imported on first use and then cached in *namespace*, so
    later lookups never reach ``__getattr__``.  The three are set here,
    not assigned in the package, because mypy reads a module-level
    ``__all__`` it cannot evaluate as exporting nothing."""
    package = namespace["__name__"]

    def __getattr__(name: str) -> Any:
        if name not in table:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(import_module(table[name]), name)
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | table.keys())

    namespace.update(__getattr__=__getattr__, __dir__=__dir__, __all__=sorted(table))
