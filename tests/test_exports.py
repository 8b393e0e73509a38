"""Package re-exports resolve lazily to their defining modules.

The packages that keep public names (``repro``, ``repro.serve``,
``repro.datasets``, ``repro.obs``, ``repro.verify``) declare them in one
``lazy_exports`` table; the tables are read from the ``__init__`` source
here so a test cannot drift from what a package declares.
"""

import ast
import importlib
import os
import subprocess
import sys

import pytest

PACKAGES = ("repro", "repro.serve", "repro.datasets", "repro.obs",
            "repro.verify")


def _declared_table(package):
    """``{module: names}`` as written in the package's ``lazy_exports``."""
    path = importlib.import_module(package).__file__
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    calls = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "lazy_exports"
    ]
    assert len(calls) == 1, package
    return ast.literal_eval(calls[0].args[1])


@pytest.mark.parametrize("package", PACKAGES)
def test_every_name_resolves_to_its_defining_module(package):
    pkg = importlib.import_module(package)
    table = _declared_table(package)
    names = [name for names in table.values() for name in names]
    assert set(pkg.__all__) - {"__version__"} == set(names)
    listed = dir(pkg)
    for module, exported in table.items():
        for name in exported:
            assert getattr(pkg, name) is getattr(
                importlib.import_module(module), name
            ), (package, name)
            assert name in listed, (package, name)


@pytest.mark.parametrize("package", PACKAGES)
def test_unknown_name_raises_attribute_error(package):
    pkg = importlib.import_module(package)
    with pytest.raises(AttributeError, match="no_such_name"):
        pkg.no_such_name
    assert not hasattr(pkg, "no_such_name")


def test_documented_import_lines():
    # benchmarks/e2e/layers.py, verbatim.
    from repro.serve import EngineRuntime, QueryService, ServeClient, ServerConfig
    from repro.serve.service import QueryService as defined

    assert QueryService is defined
    assert EngineRuntime and ServeClient and ServerConfig
    # The README quickstart and ``repro.__all__``.
    from repro import (
        Graph, OntologyGraph, BiGIndex, CostParams,
        KeywordQuery, BackwardKeywordSearch, boost,
    )
    import repro

    namespace = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= set(namespace)
    assert namespace["__version__"] == repro.__version__
    assert namespace["BiGIndex"] is BiGIndex and namespace["boost"] is boost
    # A submodule still imports through its package.
    from repro.core import persistence
    from repro.verify import probes

    assert persistence.__name__ == "repro.core.persistence"
    assert probes.__name__ == "repro.verify.probes"


def test_importing_a_package_imports_nothing_else():
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    probe = (
        "import sys\n"
        f"import {', '.join(PACKAGES)}\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('repro'))))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True,
        text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert set(result.stdout.split()) == {
        *PACKAGES, "repro.utils", "repro.utils.exports",
    }
