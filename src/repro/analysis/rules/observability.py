"""Observability rules.

Library code must not talk to stdout directly: anything worth printing
is worth recording — as a span or a trace record the
exporters in :mod:`repro.obs` can replay.  Bare ``print(`` calls in
library packages bypass that substrate and are invisible to telemetry
consumers, so :class:`BarePrintRule` flags them.  The CLI, the analysis
framework, and the text-rendering helpers are the repo's sanctioned
stdout surfaces and stay exempt.

Telemetry identifiers are contracts, too: the causal assembler and the
explain engine key on span kinds.  :class:`TaxonomyRule` keeps
statically-known kinds honest — they must be registered in
:mod:`repro.obs.taxonomy`.  Dynamic kinds (variables, f-strings) are
out of static reach and are skipped.

SLO thresholds are contracts of a third kind: the health judge's
verdicts are only auditable if every threshold lives in the declarative
:class:`~repro.obs.health.SloSpec` (unit-suffixed, JSON-round-tripped,
archived with the run).  A magic number inlined into health-checking
code silently forks the spec, so :class:`SloLiteralRule` flags numeric
literals compared against unit-suffixed quantities in modules that do
health checking (``repro.obs.health`` itself plus any ``repro`` module
importing from it).
"""

from __future__ import annotations

import ast
from typing import List, Optional

from repro.analysis.engine import Finding, Rule
from repro.analysis.rules import register
from repro.obs.taxonomy import span_kind_registered

#: ``repro`` sub-packages whose whole purpose is terminal output.
STDOUT_PACKAGES = frozenset({"analysis", "reporting"})

#: Fully-dotted modules allowed to print (the CLI entry point).
STDOUT_MODULES = frozenset({"repro.cli"})


@register
class BarePrintRule(Rule):
    """Forbid bare ``print(`` in library packages."""

    rule_id = "OBS001"
    summary = (
        "no print() in library packages; emit a span or trace record "
        "(repro.obs) so output is structured and exportable"
    )
    rationale = (
        "print() output is unstructured, unexportable, and invisible "
        "to the telemetry pipeline; findings based on it cannot be "
        "asserted on or graphed."
    )
    example = "print(f'offset={offset_ms}')"
    fix_hint = (
        "Emit a trace record or span via repro.obs (telemetry.emit "
        "/ telemetry.spans.begin)."
    )

    def run(self) -> List[Finding]:
        """Only ``repro`` library modules are in scope.

        ``repro.cli``, ``repro.analysis`` and ``repro.reporting`` are
        the sanctioned stdout surfaces; scripts, tests and benchmarks
        live outside the ``repro`` package and are never matched.
        """
        if len(self.module.module) < 2 or self.module.module[0] != "repro":
            return []
        if self.module.package in STDOUT_PACKAGES:
            return []
        if self.module.dotted() in STDOUT_MODULES:
            return []
        return super().run()

    def visit_Call(self, node: ast.Call) -> None:
        """Flag calls to the ``print`` builtin."""
        if isinstance(node.func, ast.Name) and node.func.id == "print":
            self.report(
                node,
                f"print() in library module '{self.module.dotted()}'; "
                "route output through repro.obs telemetry or the CLI layer",
            )
        self.generic_visit(node)


def _receiver_named(node: ast.expr, name: str) -> bool:
    """Whether ``node`` is the attribute or variable ``name``."""
    if isinstance(node, ast.Attribute):
        return node.attr == name
    return isinstance(node, ast.Name) and node.id == name


@register
class TaxonomyRule(Rule):
    """Span kinds must be registered.

    Checks ``<x>.spans.begin(...)`` / ``<x>.spans.span(...)`` first
    arguments against :data:`repro.obs.taxonomy.SPAN_KINDS`.  Only
    string-literal kinds are checked; dynamic kinds are skipped.
    """

    rule_id = "OBS002"
    summary = "span kinds must be registered in repro.obs.taxonomy"
    rationale = (
        "An unregistered span kind is invisible to the causal assembler "
        "and the explain engine, and fragments the trace: the same "
        "work ends up under several names."
    )
    example = "tracer.begin('my.new.kind')  # not in taxonomy"
    fix_hint = "Register the kind in repro.obs.taxonomy or fix the typo."

    #: SpanTracer entry points that take a span kind first.
    _SPAN_METHODS = frozenset({"begin", "span"})

    def run(self) -> List[Finding]:
        """Only ``repro`` library modules are in scope (like OBS001)."""
        if len(self.module.module) < 2 or self.module.module[0] != "repro":
            return []
        return super().run()

    def visit_Call(self, node: ast.Call) -> None:
        """Check span-tracer call sites."""
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and node.args
            and func.attr in self._SPAN_METHODS
            and _receiver_named(func.value, "spans")
        ):
            self._check_span_kind(node)
        self.generic_visit(node)

    def _check_span_kind(self, node: ast.Call) -> None:
        arg = node.args[0]
        # Only whole literals identify a kind; f-strings are dynamic.
        if not (isinstance(arg, ast.Constant) and isinstance(arg.value, str)):
            return
        if not span_kind_registered(arg.value):
            self.report(
                arg,
                f"span kind '{arg.value}' is not registered in "
                "repro.obs.taxonomy.SPAN_KINDS; register it (and document "
                "it in docs/OBSERVABILITY.md) or fix the typo",
            )


#: The SLO-spec module; importing from it marks a module as
#: health-checking code and puts it in OBS004 scope.
_HEALTH_MODULE = "repro.obs.health"

#: Suffixes marking a name as carrying its unit — the SloSpec field
#: naming convention thresholds must be declared under.
SLO_UNIT_SUFFIXES = (
    "_s", "_ms", "_us", "_ns", "_ratio", "_percent", "_per_s",
)


def numeric_literal(node: ast.expr) -> Optional[float]:
    """The value of a numeric literal expression, else None.

    Handles a leading unary minus (``-5.0`` parses as ``USub`` over a
    constant); bools are constants too but are never thresholds.
    """
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        inner = numeric_literal(node.operand)
        return None if inner is None else -inner
    if isinstance(node, ast.Constant) and not isinstance(node.value, bool) \
            and isinstance(node.value, (int, float)):
        return node.value
    return None


def unit_suffixed_name(node: ast.expr) -> Optional[str]:
    """The identifier carried by ``node`` when it has a unit suffix."""
    if isinstance(node, ast.Attribute):
        name = node.attr
    elif isinstance(node, ast.Name):
        name = node.id
    else:
        return None
    return name if name.endswith(SLO_UNIT_SUFFIXES) else None


@register
class SloLiteralRule(Rule):
    """SLO thresholds must be SloSpec fields, not inline literals.

    Flags numeric literals (other than the structural constants 0, 1
    and -1) compared against a unit-suffixed name — ``window_s``,
    ``drop_rate_ratio``, ``p99_abs_error_ms`` — inside health-checking
    code.  Such a comparison is an SLO judgement, and its threshold
    belongs in a unit-suffixed :class:`~repro.obs.health.SloSpec` field
    where it is declared once, validated, JSON-round-tripped, and
    archived with the run's verdict.
    """

    rule_id = "OBS004"
    summary = (
        "SLO threshold literals in health-checking code must come from "
        "a unit-suffixed SloSpec field, not an inline magic number"
    )
    rationale = (
        "An inline SLO threshold is invisible to the guarantee "
        "machinery and drifts from the spec the matrix runner "
        "actually enforces."
    )
    example = "if p99_ms > 25: fail()"
    fix_hint = "Read the threshold from a unit-suffixed SloSpec field."

    #: Structural constants (empty/disabled/sign checks), never SLOs.
    _EXEMPT = frozenset({0, 1, -1})

    def run(self) -> List[Finding]:
        """Scope: ``repro.obs.health`` plus repro modules importing it."""
        if len(self.module.module) < 2 or self.module.module[0] != "repro":
            return []
        if self.module.dotted() != _HEALTH_MODULE \
                and _HEALTH_MODULE not in self.module.imports.modules:
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
                    f"threshold literal {value!r} compared against "
                    f"'{name}'; declare it as a unit-suffixed SloSpec "
                    "field so the SLO is archived with the run",
                )
        self.generic_visit(node)
