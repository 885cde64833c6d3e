"""Lazy package namespaces (PEP 562).

A package ``__init__`` that re-exports names from its submodules hands
:func:`lazy_namespace` a ``{name: submodule}`` map and installs the two
functions it returns as the module's ``__getattr__`` and ``__dir__``.
A submodule is then imported the first time one of its names (or the
submodule itself, as in ``repro.hdc.ops``) is looked up on the package,
so ``import repro`` or ``import repro.streaming.train`` loads only the
modules that path runs.  ``from package import name``, ``__all__`` and
``dir()`` behave as they do for an eager ``__init__``.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable


def lazy_namespace(
    package: str, exports: dict[str, str]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """``(__getattr__, __dir__)`` for ``package``, resolving ``exports`` on first use."""

    def __getattr__(name: str) -> Any:
        # Tools probe dunders (doctest's __test__, inspect's __wrapped__);
        # none names a submodule, so answer without searching the path.
        if name.startswith("__"):
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        submodule = exports.get(name)
        if submodule is None:
            try:
                return importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
                raise AttributeError(
                    f"module {package!r} has no attribute {name!r}"
                ) from None
        value = getattr(importlib.import_module(f"{package}.{submodule}"), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | exports.keys())

    return __getattr__, __dir__
