"""Lazy package exports (PEP 562): a name's module loads on first use.

A package ``__init__`` maps each name it exports to the submodule that
defines it, and gets back the module-level ``__getattr__`` and
``__dir__``::

    _EXPORTS = {"sort_grid": "repro.core.runner", "trace": "repro.core.runner"}
    __all__ = list(_EXPORTS)
    __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

``from repro.core import sort_grid`` then imports ``repro.core.runner``
and nothing else.  The resolved value is stored in the package's
namespace, so every later lookup is a plain attribute read.  An export
must not share its name with a submodule of its package: importing that
submodule would rebind the name to the module.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Mapping


def lazy_exports(
    package: str, exports: Mapping[str, str]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """``__getattr__`` and ``__dir__`` for ``package``, from ``{name: module}``."""
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> Any:
        module = exports.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(importlib.import_module(module), name)
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *exports})

    return __getattr__, __dir__
