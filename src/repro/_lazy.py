"""Lazy re-exports for package ``__init__`` modules (PEP 562).

A package lists each public name under the submodule that defines
it::

    __getattr__, __dir__ = lazy_exports(__name__, {
        ".io": ("read_logs", "write_logs"),
    })

``import repro.logs`` then runs no submodule.  The first access to
``repro.logs.read_logs`` imports ``repro.logs.io`` and stores the
value in the package namespace, so later lookups are plain attribute
reads.  ``from repro.logs import read_logs``, ``from repro.logs
import *`` (through ``__all__``), ``dir(repro.logs)`` and attribute
access to a submodule (``repro.logs.io``) behave as they did when the
package imported every submodule up front.
"""

from __future__ import annotations

import sys
import types
from importlib import import_module
from typing import Callable, Dict, FrozenSet, List, Mapping, Sequence, Tuple

__all__ = ["lazy_exports"]

#: Per package: the re-exports that share their name with a submodule.
_SHADOWED: Dict[str, FrozenSet[str]] = {}


class _LazyPackage(types.ModuleType):
    """A package whose re-exports win over same-named submodules.

    Importing submodule ``pkg.x`` binds attribute ``pkg.x`` to the
    module.  When the package imported ``from .x import x`` up front,
    the re-export was bound afterwards, so ``repro.analysis.characterize``
    was the function.  A lazy package keeps that by ignoring the
    import system's binding for those names.
    """

    def __setattr__(self, name: str, value: object) -> None:
        if isinstance(value, types.ModuleType) and name in _SHADOWED.get(
            self.__name__, ()
        ):
            return
        super().__setattr__(name, value)


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """Return the ``__getattr__`` and ``__dir__`` of a lazy package.

    ``exports`` maps a submodule, relative to ``package``, to the
    names the package re-exports from it; ``"name as alias"``
    re-exports ``name`` under ``alias``.
    """
    module = sys.modules[package]
    namespace = module.__dict__
    where: Dict[str, Tuple[str, str]] = {}
    for sub, names in exports.items():
        for entry in names:
            source, _, alias = entry.partition(" as ")
            where[alias or source] = (sub, source)
    shadowed = frozenset(
        name for name, (sub, _) in where.items() if sub == "." + name
    )
    if shadowed:
        _SHADOWED[package] = shadowed
        module.__class__ = _LazyPackage

    def __getattr__(name: str) -> object:
        if name in where:
            sub, source = where[name]
            value = getattr(import_module(sub, package), source)
            namespace[name] = value
            return value
        # ``import repro`` then ``repro.logs.read_logs``: eager
        # ``__init__``s had imported the subpackage as a side effect.
        if not name.startswith("__"):
            try:
                return import_module(f"{package}.{name}")
            except ModuleNotFoundError as error:
                if error.name != f"{package}.{name}":
                    raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(where))

    return __getattr__, __dir__
