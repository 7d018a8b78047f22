"""Every ``repro`` package ``__init__`` holds only its docstring.

Names are imported from the module that defines them, so a package
``__init__`` re-exports nothing and importing a package loads none of
its submodules (DESIGN.md, "Imports follow the home module").  The two
exceptions are ``repro.__version__`` and ``repro.analysis.rules``, which
is the rule registry, not a re-export.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "repro"
INITS = sorted(PACKAGE.rglob("__init__.py"))
REGISTRY = PACKAGE / "analysis" / "rules" / "__init__.py"


def _is_docstring(stmt):
    return isinstance(stmt, ast.Expr) and isinstance(
        stmt.value, ast.Constant
    ) and isinstance(stmt.value.value, str)


def _is_version(stmt):
    return (
        isinstance(stmt, ast.Assign)
        and [getattr(t, "id", None) for t in stmt.targets] == ["__version__"]
        and isinstance(stmt.value, ast.Constant)
        and isinstance(stmt.value.value, str)
    )


def test_the_scan_finds_the_package_inits():
    assert PACKAGE / "__init__.py" in INITS
    assert REGISTRY in INITS
    assert len(INITS) > 10


@pytest.mark.parametrize(
    "path", [p for p in INITS if p != REGISTRY],
    ids=lambda p: p.relative_to(PACKAGE.parent).as_posix(),
)
def test_package_init_is_only_a_docstring(path):
    body = ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body
    assert body and _is_docstring(body[0]), f"{path} has no docstring"
    extra = body[1:]
    if path == PACKAGE / "__init__.py":
        extra = [stmt for stmt in extra if not _is_version(stmt)]
    assert not extra, (
        f"{path}:{extra[0].lineno}: a package __init__ holds only its "
        "docstring; import names from their home module"
    )
