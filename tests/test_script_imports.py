"""Every ``repro`` import in the benches and examples resolves.

The test suite never runs ``benchmarks/*.py`` or ``examples/*.py``, so a
stale import there would fail only when someone runs that file.  Each
file is read with :mod:`ast`; every ``repro`` module an import statement
names is imported and every name taken from it must exist.  No
simulation runs.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted([*ROOT.glob("examples/*.py"), *ROOT.glob("benchmarks/*.py")])


def _repro_imports(path):
    """Yield ``(line, module, name)``; ``name`` is None for ``import m``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    yield node.lineno, alias.name, None
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and (node.module or "").split(".")[0] == "repro":
            for alias in node.names:
                yield node.lineno, node.module, alias.name


def test_the_scan_finds_both_directories():
    assert {p.parent.name for p in SCRIPTS} == {"examples", "benchmarks"}


@pytest.mark.parametrize(
    "path", SCRIPTS, ids=lambda p: f"{p.parent.name}/{p.name}"
)
def test_every_repro_import_resolves(path):
    for line, module, name in _repro_imports(path):
        where = f"{path.parent.name}/{path.name}:{line}"
        loaded = importlib.import_module(module)
        if name is None or hasattr(loaded, name):
            continue
        try:  # ``from package import submodule``
            importlib.import_module(f"{module}.{name}")
        except ModuleNotFoundError:
            pytest.fail(f"{where}: {module} has no name {name!r}")
