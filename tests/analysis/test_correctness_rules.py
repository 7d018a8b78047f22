"""COR001-COR004: float equality, mutable defaults, __all__, imports."""

from repro.analysis.engine import check_source

MODULE = "repro.core.protocol"


def rules_for(src, module=MODULE):
    return sorted({f.rule for f in check_source(src, module=module)})


# -- COR001: float equality on time quantities --------------------------

def test_offset_equality_flagged():
    assert rules_for("same = offset == prev_offset\n") == ["COR001"]


def test_suffixed_quantity_equality_flagged():
    assert rules_for("hit = elapsed_ms != budget_ms\n") == ["COR001"]


def test_tolerance_comparison_clean():
    assert rules_for("close = abs(offset - prev) < 1e-9\n") == []


def test_ordering_comparisons_clean():
    assert rules_for("late = offset > threshold\n") == []


def test_allcaps_bytes_sentinel_exempt():
    assert rules_for("unset = data == ZERO_TIMESTAMP\n") == []


def test_string_and_none_comparisons_exempt():
    assert rules_for("named = offset_label == 'raw'\n") == []
    assert rules_for("missing = last_offset == None\n") == []


# -- COR002: mutable default arguments ----------------------------------

def test_list_default_flagged():
    assert rules_for("def f(samples=[]):\n    return samples\n") == ["COR002"]


def test_dict_constructor_default_flagged():
    src = "def f(*, table=dict()):\n    return table\n"
    assert rules_for(src) == ["COR002"]


def test_none_default_clean():
    src = "def f(samples=None):\n    return samples or []\n"
    assert rules_for(src) == []


def test_nested_function_defaults_checked():
    src = (
        "def outer():\n"
        "    def inner(acc={}):\n"
        "        return acc\n"
        "    return inner\n"
    )
    assert rules_for(src) == ["COR002"]


# -- COR004: unused imports ---------------------------------------------

def test_unused_import_flagged():
    assert rules_for("import os\n\nx = 1\n") == ["COR004"]


def test_used_import_clean():
    assert rules_for("import os\n\nx = os.getpid\n") == []


def test_quoted_annotation_counts_as_use():
    src = (
        "from typing import Dict\n\n"
        "registry: \"Dict[str, int]\" = {}\n"
    )
    assert rules_for(src) == []


def test_dunder_all_reexport_is_not_a_use():
    """Package inits hold no re-exports, so __all__ keeps no import alive."""
    src = (
        "from repro.core.protocol import Mntp\n\n"
        "__all__ = ['Mntp']\n"
    )
    findings = check_source(
        src, module="repro.core", path="src/repro/core/__init__.py",
        select=["COR004"],
    )
    assert [f.rule for f in findings] == ["COR004"]


def test_optional_dependency_guard_exempt():
    src = (
        "try:\n"
        "    import fancy_dep\n"
        "except ImportError:\n"
        "    fancy_dep = None\n"
    )
    assert rules_for(src) == []


def test_future_import_exempt():
    assert rules_for("from __future__ import annotations\n\nx = 1\n") == []
