"""Time-unit safety rules.

The codebase's convention is that every variable holding a quantity of
time carries a unit suffix: ``period_s``, ``rmse_ms``, ``offset_us``,
``correction_ns``.  These rules exploit that convention to catch the
exact confusion class behind offset-magnitude bugs — adding seconds to
milliseconds, comparing across units, or mixing NTP wire-format
fixed-point bytes with float seconds.

Multiplication and division are deliberately exempt: ``x_ms / 1000`` and
``rate * interval_s`` are how conversions are written.
"""

from __future__ import annotations

import ast
from typing import Optional, Tuple

from repro.analysis.engine import Rule
from repro.analysis.rules import register
from repro.analysis.rules.base import (
    NTP_SECONDS_FUNCS,
    NTP_WIRE_FUNCS,
    call_func_name,
    expr_unit,
    is_number_constant,
)


def _mixed(left: ast.AST, right: ast.AST) -> Optional[Tuple[str, str]]:
    lu, ru = expr_unit(left), expr_unit(right)
    if lu is not None and ru is not None and lu != ru:
        return lu, ru
    return None


@register
class MixedUnitArithmeticRule(Rule):
    """Flag ``+``/``-`` between operands with different unit suffixes."""

    rule_id = "UNIT001"
    summary = (
        "no addition/subtraction between quantities whose _s/_ms/_us/_ns "
        "suffixes disagree; convert explicitly first"
    )
    rationale = (
        "Adding seconds to milliseconds is the classic silent 1000x "
        "error; the suffix convention exists so the linter can catch "
        "it."
    )
    example = "total = rtt_ms + offset_s"
    fix_hint = "Convert explicitly first: rtt_ms + offset_s * 1e3."

    def visit_BinOp(self, node: ast.BinOp) -> None:
        """Flag +/- whose operands declare different units."""
        if isinstance(node.op, (ast.Add, ast.Sub)):
            mix = _mixed(node.left, node.right)
            if mix is not None:
                op = "+" if isinstance(node.op, ast.Add) else "-"
                self.report(
                    node,
                    f"arithmetic '{op}' mixes units: left is declared "
                    f"'{mix[0]}', right is declared '{mix[1]}'",
                )
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        """Flag +=/-= whose target and value declare different units."""
        if isinstance(node.op, (ast.Add, ast.Sub)):
            mix = _mixed(node.target, node.value)
            if mix is not None:
                op = "+=" if isinstance(node.op, ast.Add) else "-="
                self.report(
                    node,
                    f"augmented '{op}' mixes units: target is declared "
                    f"'{mix[0]}', value is declared '{mix[1]}'",
                )
        self.generic_visit(node)


@register
class MixedUnitComparisonRule(Rule):
    """Flag comparisons between operands with different unit suffixes."""

    rule_id = "UNIT002"
    summary = (
        "no comparison between quantities whose _s/_ms/_us/_ns suffixes "
        "disagree; a threshold in the wrong unit is off by 1000x"
    )
    rationale = (
        "A threshold compared in the wrong unit is off by 1000x and "
        "usually makes the check always-true or always-false."
    )
    example = "if delay_us > timeout_ms: drop()"
    fix_hint = "Convert one side: delay_us > timeout_ms * 1e3."

    def visit_Compare(self, node: ast.Compare) -> None:
        """Flag comparisons whose operands declare different units."""
        operands = [node.left] + list(node.comparators)
        for left, right in zip(operands, operands[1:]):
            mix = _mixed(left, right)
            if mix is not None:
                self.report(
                    node,
                    f"comparison mixes units: '{mix[0]}' vs '{mix[1]}'",
                )
        self.generic_visit(node)


def _ntp_kind(node: ast.AST) -> Optional[str]:
    """'wire' / 'seconds' when the expression is an NTP codec call."""
    name = call_func_name(node)
    if name in NTP_WIRE_FUNCS:
        return "wire"
    if name in NTP_SECONDS_FUNCS:
        return "seconds"
    return None


def _numeric_desc(node: ast.AST) -> Optional[str]:
    """How a non-wire operand presents numerically, for the message."""
    unit = expr_unit(node)
    if unit is not None:
        return f"a float declared '{unit}'"
    if is_number_constant(node):
        return "a numeric literal"
    if _ntp_kind(node) == "seconds":
        return "float seconds from an NTP decode helper"
    return None


@register
class NtpFixedPointRule(Rule):
    """Flag mixing NTP wire-format bytes with float quantities."""

    rule_id = "UNIT003"
    summary = (
        "no comparing/combining NTP fixed-point wire bytes "
        "(encode_timestamp/encode_short) with floats; decode first"
    )
    rationale = (
        "encode_timestamp/encode_short return fixed-point wire bytes, "
        "not numbers; comparing them with floats is meaningless."
    )
    example = "if encode_short(d) > 0.5: ..."
    fix_hint = "Decode to seconds first (decode_short / decode_timestamp)."

    def _check_pair(self, node: ast.AST, left: ast.AST, right: ast.AST) -> None:
        for wire, other in ((left, right), (right, left)):
            if _ntp_kind(wire) != "wire":
                continue
            desc = _numeric_desc(other)
            if desc is not None:
                self.report(
                    node,
                    "NTP wire-format fixed-point bytes mixed with "
                    f"{desc}; decode to seconds before comparing",
                )
                return
        # seconds-returning decode helpers vs a non-seconds suffix.
        for helper, other in ((left, right), (right, left)):
            if _ntp_kind(helper) != "seconds":
                continue
            unit = expr_unit(other)
            if unit is not None and unit != "s":
                self.report(
                    node,
                    "NTP decode helpers return float *seconds* but the "
                    f"other operand is declared '{unit}'",
                )
                return

    def visit_Compare(self, node: ast.Compare) -> None:
        """Flag comparisons that mix wire bytes or decode output badly."""
        operands = [node.left] + list(node.comparators)
        for left, right in zip(operands, operands[1:]):
            self._check_pair(node, left, right)
        self.generic_visit(node)

    def visit_BinOp(self, node: ast.BinOp) -> None:
        """Flag +/- that mixes wire bytes or decode output badly."""
        if isinstance(node.op, (ast.Add, ast.Sub)):
            self._check_pair(node, node.left, node.right)
        self.generic_visit(node)
