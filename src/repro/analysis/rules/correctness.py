"""Generic correctness rules.

Not domain-specific to time synchronization, but each one guards a bug
class that has bitten timekeeping code in practice: float equality on
measured offsets, mutable default arguments acting as cross-run shared
state, and imports that quietly stop being used.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, List, Set

from repro.analysis.engine import Finding, Rule
from repro.analysis.rules import register
from repro.analysis.rules.base import node_name, suffix_unit

#: Lower-case identifiers that denote measured float time quantities.
_TIME_QUANTITY_RE = re.compile(r"(offset|timestamp|drift|skew|rtt|rmse)")


def _is_float_time_quantity(node: ast.AST) -> bool:
    name = node_name(node)
    if name is None or name.isupper():
        # ALL_CAPS constants (e.g. the bytes sentinel ZERO_TIMESTAMP)
        # are compared by identity/value on purpose.
        return False
    return suffix_unit(name) is not None or bool(
        _TIME_QUANTITY_RE.search(name.lower())
    )


@register
class FloatEqualityRule(Rule):
    """Flag ``==``/``!=`` on offsets, timestamps, and suffixed quantities."""

    rule_id = "COR001"
    summary = (
        "no == / != on float time quantities (offsets, timestamps, "
        "*_s/_ms/... names); compare against a tolerance"
    )
    rationale = (
        "Float time quantities accumulate rounding error; exact "
        "equality is true only by accident and flips with any "
        "reordering of arithmetic."
    )
    example = "if t_s == deadline_s: fire()"
    fix_hint = "Compare against a tolerance: abs(t_s - deadline_s) < 1e-9."

    def visit_Compare(self, node: ast.Compare) -> None:
        """Flag ==/!= where either side names a float time quantity."""
        operands = [node.left] + list(node.comparators)
        for (left, right), op in zip(zip(operands, operands[1:]), node.ops):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            if _constant_exempt(left) or _constant_exempt(right):
                continue
            quantity = next(
                (n for n in (left, right) if _is_float_time_quantity(n)), None
            )
            if quantity is not None:
                name = node_name(quantity)
                self.report(
                    node,
                    f"float equality on time quantity '{name}'; use a "
                    "tolerance (abs(a - b) < eps) or an integer key",
                )
        self.generic_visit(node)


def _constant_exempt(node: ast.AST) -> bool:
    """None / bool / string comparisons are not float-equality hazards."""
    if not isinstance(node, ast.Constant):
        return False
    return node.value is None or isinstance(node.value, (bool, str, bytes))


@register
class MutableDefaultRule(Rule):
    """Flag mutable default argument values."""

    rule_id = "COR002"
    summary = (
        "no mutable default arguments ([], {}, set(), ...); they persist "
        "across calls and leak state between experiments"
    )
    rationale = (
        "A mutable default is created once at def time and shared by "
        "every call, so state leaks between experiments and runs stop "
        "being independent."
    )
    example = "def run(samples=[]): samples.append(...)"
    fix_hint = "Default to None and create the container inside the function."

    _MUTABLE_CALLS = {"list", "dict", "set", "bytearray"}

    def _check(self, node: ast.AST) -> None:
        """Flag mutable literals / constructor calls among defaults."""
        args = getattr(node, "args", None)
        if args is None:
            self.generic_visit(node)
            return
        for default in list(args.defaults) + list(args.kw_defaults):
            if default is None:
                continue
            if isinstance(default, (ast.List, ast.Dict, ast.Set,
                                    ast.ListComp, ast.DictComp, ast.SetComp)):
                self.report(default, "mutable default argument; use None "
                                     "and create inside the function")
            elif (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in self._MUTABLE_CALLS
            ):
                self.report(default, "mutable default argument "
                                     f"({default.func.id}()); use None and "
                                     "create inside the function")
        self.generic_visit(node)

    visit_FunctionDef = _check
    visit_AsyncFunctionDef = _check


@register
class UnusedImportRule(Rule):
    """Flag imports that are never referenced."""

    rule_id = "COR004"
    summary = "no unused imports"
    rationale = (
        "Unused imports hide real dependencies, slow import time, and "
        "mask typos (the intended name differs from the imported "
        "one)."
    )
    example = "import os  # never referenced"
    fix_hint = "Delete the import."

    def run(self) -> List[Finding]:
        """Whole-module check: compare bound imports against uses."""
        tree = self.module.tree
        imported: Dict[str, ast.AST] = {}
        in_try = _nodes_inside_try(tree)
        for node in ast.walk(tree):
            if id(node) in in_try:
                continue  # optional-dependency guards
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".", 1)[0]
                    imported[local] = node
            elif isinstance(node, ast.ImportFrom):
                if node.module == "__future__":
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    imported[alias.asname or alias.name] = node
        if not imported:
            return []

        used: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
        used.update(_string_annotation_names(tree))
        for local, node in imported.items():
            if local not in used:
                self.report(node, f"import '{local}' is never used")
        return self.findings


_IDENTIFIER_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _string_annotation_names(tree: ast.Module) -> Set[str]:
    """Identifiers inside quoted annotations (``x: "Dict[str, Rule]"``)."""
    names: Set[str] = set()
    annotations: List[ast.AST] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                annotations.append(node.returns)
    for annotation in annotations:
        for sub in ast.walk(annotation):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                names.update(_IDENTIFIER_RE.findall(sub.value))
    return names


def _nodes_inside_try(tree: ast.Module) -> Set[int]:
    """Ids of every node lexically inside a ``try`` statement."""
    inside: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Try):
            for child in ast.walk(node):
                if child is not node:
                    inside.add(id(child))
    return inside
