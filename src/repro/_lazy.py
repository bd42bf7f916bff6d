"""Lazy package attributes (PEP 562).

A package's ``__init__`` re-exports names from its submodules for
convenience, but importing every submodule eagerly makes each import of
one submodule pay for all of them: the optimizer, its rule sets, the
execution engine, the benchmark harness.  A package instead declares
where each public name lives; the submodule is imported on first
attribute access, and the value is then bound in the package so later
accesses are plain lookups.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable


def lazy_exports(
    package: str, exports: "dict[str, str]"
) -> "tuple[Callable[[str], object], Callable[[], list]]":
    """``(__getattr__, __dir__)`` for ``package``.

    ``exports`` maps each public name to the module defining it.  A name
    must not also be a submodule of ``package``: importing that submodule
    would bind the module under the name first.
    """

    def __getattr__(name: str) -> object:
        try:
            module = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list:
        return sorted(set(vars(sys.modules[package])) | set(exports))

    return __getattr__, __dir__
