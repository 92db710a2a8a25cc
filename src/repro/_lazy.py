"""Lazy re-exports for package ``__init__`` modules (PEP 562).

A package imports eagerly only the submodules a throughput or fabric
run executes; every other public name is listed in a table and its
submodule is imported on first use:

.. code-block:: python

    __getattr__, __dir__ = lazy_exports(__name__, {
        "MicroNic": "repro.nic.controller",
    })

``from repro.nic import MicroNic`` and ``repro.nic.MicroNic`` work as
before, and ``dir(repro.nic)`` lists the name before it is loaded.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Tuple


def lazy_exports(
    package: str, table: Dict[str, str]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for ``package``: each name in
    ``table`` (name -> module that defines it) is imported from its
    module on first access, then cached in the package namespace."""
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> object:
        try:
            module = table[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(table))

    return __getattr__, __dir__
