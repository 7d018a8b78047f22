"""Interprocedural rules: UNIT004, UNIT005, DET004, COR005.

These run in the engine's second phase over a :class:`Project` built
from every analysed module, so they see across function and module
boundaries: a ``_ms`` value flowing into a ``_s`` parameter two modules
away, a wall-clock call hidden behind a helper outside the simulation
packages, a public function nothing calls.

Cross-file findings carry an *endpoint* (``path::qualname`` of the
other end), rendered after the message so the reader sees both ends of
the edge.
"""

from __future__ import annotations

from typing import List, Optional

from repro.analysis.engine import Finding, ProjectRule, in_tests
from repro.analysis.flow.project import FunctionEntry
from repro.analysis.flow.summary import MODULE_BODY
from repro.analysis.rules import register_project
from repro.analysis.rules.determinism import SIMULATION_PACKAGES

#: Module-level functions never flagged as dead: external entry points.
_ENTRYPOINT_NAMES = frozenset({"main"})


def _in_det_scope(entry: FunctionEntry) -> bool:
    """Whether DET004 polices this function's body."""
    if entry.module.package in SIMULATION_PACKAGES:
        return True
    return in_tests(entry.module.module)


@register_project
class CallSiteUnitRule(ProjectRule):
    """Flag call arguments whose declared unit contradicts the parameter."""

    rule_id = "UNIT004"
    summary = (
        "no passing a quantity declared in one unit (_s/_ms/_us/_ns "
        "suffix) into a parameter declared in another, across any call "
        "in the analysed tree"
    )
    rationale = (
        "Units must survive call boundaries: passing seconds into a "
        "_ms parameter is the same 1000x bug as UNIT001, one hop "
        "removed."
    )
    example = "backoff(wait_ms=interval_s)"
    fix_hint = "Convert at the call site to the parameter's declared unit."

    def run(self) -> List[Finding]:
        """Every resolvable call edge, argument by argument."""
        project = self.project
        for caller in project.functions.values():
            module = caller.module.dotted()
            for call in caller.info.calls:
                callee = project.resolve(call.ref, module)
                if callee is None:
                    continue
                # Unbound ``Class.method(obj, ...)`` reached through a
                # dotted path maps positions uncertainly (no ``self``
                # in the recorded signature): keyword args only.
                positional_ok = not (
                    callee.info.is_method and call.ref.startswith("d:")
                )
                for arg in call.args:
                    arg_unit = arg.unit
                    if arg_unit is None:
                        arg_unit = project.call_return_unit(
                            arg.call_ref, module
                        )
                    if arg_unit is None:
                        continue
                    param_name, param_unit = self._parameter(
                        callee, arg.position, arg.keyword, positional_ok
                    )
                    if param_unit is None or param_unit == arg_unit:
                        continue
                    self.report(
                        path=caller.module.path,
                        lineno=call.lineno,
                        col=call.col,
                        message=(
                            f"argument '{arg.display}' to "
                            f"{callee.display}() is declared "
                            f"'{arg_unit}' but parameter "
                            f"'{param_name}' is declared '{param_unit}'"
                        ),
                        endpoint=callee.endpoint(),
                    )
        return self.findings

    @staticmethod
    def _parameter(
        callee: FunctionEntry,
        position: Optional[int],
        keyword: Optional[str],
        positional_ok: bool,
    ):
        info = callee.info
        if keyword is not None:
            return keyword, info.kw_units.get(keyword)
        if position is not None and positional_ok:
            if position < len(info.pos_params):
                return info.pos_params[position]
        return None, None


@register_project
class ReturnUnitRule(ProjectRule):
    """Flag assigning a call result to a name declaring a different unit."""

    rule_id = "UNIT005"
    summary = (
        "no assigning a call whose inferred return unit is one "
        "_s/_ms/_us/_ns unit to a name whose suffix declares another"
    )
    rationale = (
        "A call whose return unit is inferred as seconds assigned to "
        "an _ms name poisons every later use of that name."
    )
    example = "elapsed_ms = stopwatch_seconds()"
    fix_hint = "Rename the target or convert the value at the assignment."

    def run(self) -> List[Finding]:
        """Every recorded assignment-from-call site."""
        project = self.project
        for summary in project.summaries:
            module = summary.dotted()
            for assign in summary.assigns:
                callee = project.resolve(assign.ref, module)
                if callee is None:
                    continue
                returned = project.return_units.get(callee.full)
                if returned is None or returned == assign.unit:
                    continue
                self.report(
                    path=summary.path,
                    lineno=assign.lineno,
                    col=assign.col,
                    message=(
                        f"assignment target '{assign.target}' is declared "
                        f"'{assign.unit}' but {callee.display}() returns "
                        f"'{returned}'"
                    ),
                    endpoint=callee.endpoint(),
                )
        return self.findings


@register_project
class TransitiveEffectRule(ProjectRule):
    """Flag simulation code that reaches host time / global RNG via calls."""

    rule_id = "DET004"
    summary = (
        "no simulation-package (or tests) function may transitively "
        "reach a wall-clock or global-RNG call through helpers, even "
        "ones outside the simulation packages"
    )
    rationale = (
        "A sim-package function can launder a wall-clock or "
        "global-RNG call through an innocent-looking helper; the "
        "transitive closure is what matters."
    )
    example = "def step(self): util.stamp()  # stamp() calls time.time()"
    fix_hint = (
        "Follow the reported witness chain and replace the effectful "
        "call at its source."
    )
    covers_tests = True

    _KIND_LABEL = {
        "wall-clock": "wall-clock call",
        "stdlib-random": "stdlib random call",
        "numpy-global-rng": "numpy global-RNG call",
    }

    def run(self) -> List[Finding]:
        """Every call edge out of a policed function.

        An edge from the tests tree into library code is not reported:
        the callee's own package scope already decides whether its
        effects matter, so a test driving the CLI is not a chain.
        """
        project = self.project
        for caller in project.functions.values():
            if not _in_det_scope(caller):
                continue
            module = caller.module.dotted()
            from_tests = in_tests(caller.module.module)
            for call in caller.info.calls:
                callee = project.resolve(call.ref, module)
                if callee is None or callee.full not in project.effects:
                    continue
                if from_tests and not in_tests(callee.module.module):
                    continue
                if not self._is_boundary(callee):
                    continue
                for dotted, path in sorted(
                    project.effects[callee.full].items()
                ):
                    chain = [callee.full] + project.effect_chain(
                        callee.full, dotted
                    )[1:]
                    direct = project.functions.get(path.direct_in)
                    endpoint = direct.endpoint() if direct else ""
                    via = " -> ".join(chain)
                    self.report(
                        path=caller.module.path,
                        lineno=call.lineno,
                        col=call.col,
                        message=(
                            f"'{caller.display}' transitively reaches "
                            f"{self._KIND_LABEL[path.kind]} {dotted}() "
                            f"via {via}; simulated code must stay "
                            "deterministic"
                        ),
                        endpoint=endpoint,
                    )
        return self.findings

    def _is_boundary(self, callee: FunctionEntry) -> bool:
        """Report at the edge where the effect enters the caller's scope.

        Either the callee performs the effect itself, or the callee
        lives outside the policed packages and carries the effect
        transitively.  Edges to effect-free in-scope callees are not
        reported — the callee's own call sites are, so each chain
        yields exactly one finding at the crossing.
        """
        if any(not e.suppressed for e in callee.info.effects):
            return True
        if _in_det_scope(callee):
            return False
        return bool(self.project.effects.get(callee.full))


@register_project
class DeadPublicFunctionRule(ProjectRule):
    """Flag public module-level functions nothing calls or tests."""

    rule_id = "COR005"
    summary = (
        "no dead public API: a module-level public function that is "
        "never referenced in the analysed tree, scripts, or tests "
        "should be removed or exercised"
    )
    rationale = (
        "A public function nothing calls or tests is dead weight that "
        "still must be kept working; either it has users (add a test) "
        "or it does not (remove it)."
    )
    example = "def helper(): ...  # no caller, no test, public name"
    fix_hint = (
        "Remove it, underscore-prefix it, or add the missing "
        "caller/test."
    )

    def run(self) -> List[Finding]:
        """Every public module-level function vs the reference set."""
        project = self.project
        referenced = project.referenced_names()
        for entry in project.functions.values():
            info = entry.info
            if (
                info.qualname == MODULE_BODY
                or info.is_method
                or not info.is_public
                or info.decorated
                or info.name in _ENTRYPOINT_NAMES
                or entry.module.module[:1] != ("repro",)
            ):
                continue
            if info.name in referenced:
                continue
            self.report(
                path=entry.module.path,
                lineno=info.lineno,
                col=info.col,
                message=(
                    f"public function '{entry.full}' is never called in "
                    "the analysed tree and never referenced by tests; "
                    "remove it or add a caller/test"
                ),
            )
        return self.findings
