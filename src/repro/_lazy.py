"""Lazy package re-exports (PEP 562).

A package ``__init__`` that re-exports names from its submodules would
otherwise import every submodule the moment anything under the package
is imported — ``import repro.testbed.specs`` would pay for the log
study, the tuner and the matrix runner.  :func:`lazy_exports` builds the
package's module-level ``__getattr__`` and ``__dir__`` instead: a name
is imported from its home module on first access and cached in the
package's globals, so later lookups are plain dict hits and every
re-export is the very object its home module defines.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(
    namespace: Dict[str, Any], homes: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """Return ``(__getattr__, __dir__)`` for a lazily re-exporting package.

    ``namespace`` is the package's ``globals()``; ``homes`` maps each
    home module's dotted name to the names re-exported from it.  An
    unknown name raises :class:`AttributeError`, so ``hasattr`` and
    ``from pkg import submodule`` keep working.
    """
    package = namespace["__name__"]
    home_of = {name: module for module, names in homes.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = home_of.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(home_of))

    return __getattr__, __dir__
