"""Robustness rules.

Fault handling in library code must be explicit and bounded.  A bare
``except:`` swallows everything — including ``KeyboardInterrupt``,
``SystemExit`` and the simulator's own invariant errors — turning an
injected fault into silent corruption instead of a visible failure, so
:class:`BareExceptRule` forbids it.  Likewise, a wait is only robust if
it can end: a ``timeout=`` or ``poll_interval=`` literal that is zero
or negative either never fires or spins, and under a blackout or
server-death fault the caller hangs forever.  Both patterns are exactly
the ones the fault-injection matrix (:mod:`repro.faults`) exists to
flush out, so ROB001 keeps them from entering the library in the first
place.

Guarantee thresholds are the scenario DSL's version of the same
contract.  A scenario's pass/fail bar belongs in its embedded
:class:`~repro.obs.health.SloSpec` guarantees block (or a
unit-suffixed :class:`~repro.testbed.specs.ScenarioSpec` field), where
it is declared once, validated, JSON-round-tripped, and archived with
the matrix verdict.  A numeric literal compared against a
unit-suffixed quantity inside scenario-wiring code is a guarantee that
escaped the spec — :class:`ScenarioThresholdRule` (ROB002) extends the
OBS004 machinery to keep scenario modules threshold-free.
"""

from __future__ import annotations

import ast
from typing import List, Optional

from repro.analysis.engine import Finding, Rule
from repro.analysis.rules import register
from repro.analysis.rules.observability import (
    numeric_literal,
    unit_suffixed_name,
)

#: Keyword arguments naming a bounded wait; a non-positive literal
#: makes the wait degenerate (never fires or busy-spins).
WAIT_KEYWORDS = frozenset({"timeout", "poll_interval"})


def _literal_number(node: ast.expr) -> Optional[float]:
    """The numeric value of a literal expression, None if dynamic.

    Handles plain constants and a leading unary minus; booleans are not
    numbers here.
    """
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        inner = _literal_number(node.operand)
        return None if inner is None else -inner
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)) \
            and not isinstance(node.value, bool):
        return float(node.value)
    return None


@register
class BareExceptRule(Rule):
    """Forbid bare ``except:`` and degenerate wait literals."""

    rule_id = "ROB001"
    summary = (
        "no bare 'except:' in library code (name the exceptions; bare "
        "handlers swallow faults and interrupts), and no literal "
        "timeout=/poll_interval= <= 0 (a wait must be able to end)"
    )
    rationale = (
        "A bare except swallows KeyboardInterrupt and fault-injection "
        "signals alike; a non-positive timeout turns a bounded wait "
        "into a spin or a hang."
    )
    example = (
        "try: step()\n"
        "except: pass"
    )
    fix_hint = (
        "Name the exceptions you mean to handle; make timeouts "
        "positive."
    )

    def run(self) -> List[Finding]:
        """Only ``repro`` library modules are in scope.

        Scripts, tests, and benchmarks live outside the ``repro``
        package and are never matched; within it, no module is exempt —
        robustness conventions apply to the CLI and analysis layers too.
        """
        if len(self.module.module) < 2 or self.module.module[0] != "repro":
            return []
        return super().run()

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        """Flag ``except:`` with no exception type."""
        if node.type is None:
            self.report(
                node,
                "bare 'except:' swallows KeyboardInterrupt/SystemExit and "
                "hides injected faults; catch named exception types",
            )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        """Flag literal non-positive ``timeout=`` / ``poll_interval=``."""
        for keyword in node.keywords:
            if keyword.arg not in WAIT_KEYWORDS:
                continue
            value = _literal_number(keyword.value)
            if value is not None and value <= 0:
                self.report(
                    keyword.value,
                    f"literal {keyword.arg}={value:g} never expires (or "
                    "spins); waits in library code must be positive and "
                    "bounded",
                )
        self.generic_visit(node)


#: Modules that *are* scenario-wiring code, always in ROB002 scope.
_SCENARIO_MODULES = frozenset({
    "repro.testbed.specs",
    "repro.testbed.matrix",
})


@register
class ScenarioThresholdRule(Rule):
    """Guarantee thresholds must live in the spec, not scenario code.

    Flags numeric literals (other than the structural constants 0, 1
    and -1) compared against a unit-suffixed name — ``duration_s``,
    ``p99_abs_error_ms``, ``drop_rate_ratio`` — inside scenario-wiring
    code.  Such a comparison hard-codes a pass/fail bar the scenario
    DSL exists to declare: it belongs in the spec's embedded
    :class:`~repro.obs.health.SloSpec` guarantees block (judged by the
    matrix runner and archived with the verdict) or a validated
    unit-suffixed :class:`~repro.testbed.specs.ScenarioSpec` field.
    """

    rule_id = "ROB002"
    summary = (
        "scenario/spec modules must not hard-code guarantee thresholds; "
        "a numeric literal compared against a unit-suffixed name "
        "belongs in an SloSpec guarantees block or a ScenarioSpec field"
    )
    rationale = (
        "Guarantee thresholds hard-coded in scenario code bypass the "
        "SloSpec machinery, so the matrix runner and the scenario "
        "disagree about pass/fail."
    )
    example = "assert p99_offset_ms < 25  # in a scenario module"
    fix_hint = (
        "Declare the threshold in the spec's guarantees block and "
        "read it from there."
    )

    #: Structural constants (empty/disabled/sign checks), never bars.
    _EXEMPT = frozenset({0, 1, -1})

    def run(self) -> List[Finding]:
        """Scope: the scenario/spec/matrix modules plus any repro
        module importing scenario machinery from them."""
        if len(self.module.module) < 2 or self.module.module[0] != "repro":
            return []
        if self.module.dotted() not in _SCENARIO_MODULES \
                and not self.module.imports.modules & _SCENARIO_MODULES:
            return []
        return super().run()

    def visit_Compare(self, node: ast.Compare) -> None:
        """Flag literal-vs-unit-suffixed-name comparison operands."""
        sides = [node.left, *node.comparators]
        for left, right in zip(sides, sides[1:]):
            for literal_node, other in ((left, right), (right, left)):
                value = numeric_literal(literal_node)
                if value is None or value in self._EXEMPT:
                    continue
                name = unit_suffixed_name(other)
                if name is None:
                    continue
                self.report(
                    literal_node,
                    f"guarantee threshold literal {value!r} compared "
                    f"against '{name}' in scenario code; declare it in "
                    "the spec's SloSpec guarantees block or a "
                    "unit-suffixed ScenarioSpec field",
                )
        self.generic_visit(node)
