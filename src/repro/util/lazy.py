"""Package namespaces that import a submodule on first use (PEP 562).

A package ``__init__`` lists what it exports, grouped by the submodule
that defines it, and imports nothing::

    __all__, __getattr__, __dir__ = lazy_exports(__name__, {
        "driver": ("Driver", "DriverConfig"),
        "lsm.db": ("LSMStore",),
    })

``from repro.core import Driver`` then imports ``repro.core.driver``
and nothing else of the package, so a run loads only the layers it
uses while every public import path stays what it was.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable


def lazy_exports(
    package: str, table: dict[str, tuple[str, ...]]
) -> tuple[list[str], Callable[[str], Any], Callable[[], list[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package``'s ``__init__``.

    ``table`` maps a submodule, relative to the package, to the public
    names it defines. A name is imported from its submodule the first
    time it is read and then cached in the package namespace, so later
    reads are plain attribute lookups.
    """
    home = {name: module for module, names in table.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        try:
            module = home[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(f".{module}", package), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | home.keys())

    return list(home), __getattr__, __dir__
