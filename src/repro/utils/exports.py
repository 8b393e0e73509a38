"""Package re-exports that import their defining module on first use.

A package ``__init__`` that imports its submodules makes every process
that touches one submodule pay for all of them.  :func:`lazy_exports`
keeps a package's public names without that cost (PEP 562): the
package declares which module defines each name, and a name's module is
imported the first time the name is read.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Sequence, Tuple


def lazy_exports(
    package: str, table: Dict[str, Sequence[str]]
) -> Tuple[List[str], Callable[[str], object], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package``.

    ``table`` maps each defining module to the names the package
    re-exports from it.  A resolved name is stored on the package, so
    only its first read goes through ``__getattr__``.  A name outside
    the table raises :class:`AttributeError`, which is also what lets
    ``from package import submodule`` fall back to importing the
    submodule.
    """
    home = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str) -> object:
        module = home.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted({*vars(sys.modules[package]), *home})

    return list(home), __getattr__, __dir__
