"""Determinism rules.

Every experiment must be bit-for-bit reproducible from its root seed.
That breaks the moment simulation code reads the wall clock or draws
from a globally-seeded RNG, so these rules forbid both at the source
level — all randomness is required to flow through
:class:`repro.simcore.random.RngRegistry` named streams.

This module names the calls that count as effects and the scope of each
rule.  The module's flow summary (``SourceModule.summary``) classifies
every call against these tables once; DET001-DET003 report its effect
sites and DET004 (:mod:`repro.analysis.flow.rules`) follows them
across calls.
"""

from __future__ import annotations

from typing import List

from repro.analysis.engine import Finding, Rule, in_tests
from repro.analysis.rules import register

#: Sub-packages of ``repro`` that execute inside the simulator and must
#: never observe host time.
SIMULATION_PACKAGES = frozenset(
    {"simcore", "core", "ntp", "wireless", "clock", "obs"}
)

#: Canonical dotted names that read the host clock or block on it.
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.sleep",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: Legacy numpy global-state RNG entry points (seeded process-wide, so a
#: draw in one component perturbs every other component's sequence).
NUMPY_GLOBAL_RNG_CALLS = frozenset(
    {
        "numpy.random.seed",
        "numpy.random.rand",
        "numpy.random.randn",
        "numpy.random.randint",
        "numpy.random.random",
        "numpy.random.random_sample",
        "numpy.random.ranf",
        "numpy.random.sample",
        "numpy.random.choice",
        "numpy.random.shuffle",
        "numpy.random.permutation",
        "numpy.random.normal",
        "numpy.random.uniform",
        "numpy.random.exponential",
        "numpy.random.standard_normal",
        "numpy.random.get_state",
        "numpy.random.set_state",
    }
)

#: The one module allowed to construct RNG machinery directly; its
#: summary records no RNG effects, so DET002 and DET003 skip it.
RNG_HOME = ("repro", "simcore", "random")

#: Effect kind -> the per-file rule that polices the direct call, so a
#: targeted noqa on the direct line also silences transitive reports.
EFFECT_RULES = {
    "wall-clock": "DET001",
    "stdlib-random": "DET002",
    "numpy-global-rng": "DET003",
}


class _EffectRule(Rule):
    """Report the summary's effect sites of this rule's kind."""

    #: The determinism rules police the tests tree too: a test reading
    #: host time or the global RNG flakes like a simulator bug would.
    covers_tests = True

    def run(self) -> List[Finding]:
        """One finding per effect site the summary recorded."""
        for function in self.module.summary.functions:
            for site in function.effects:
                if EFFECT_RULES[site.kind] != self.rule_id:
                    continue
                self.findings.append(Finding(
                    rule=self.rule_id, path=self.module.path,
                    line=site.lineno, col=site.col,
                    message=self.message(site.dotted),
                ))
        return self.findings

    def message(self, dotted: str) -> str:
        """The finding text for a call resolving to ``dotted``."""
        raise NotImplementedError


@register
class WallClockRule(_EffectRule):
    """Forbid host-clock reads inside simulation packages."""

    rule_id = "DET001"
    summary = (
        "no wall-clock reads (time.time/monotonic/sleep, datetime.now) in "
        "simulation packages or the tests tree; simulated time comes "
        "from Simulator.now"
    )
    rationale = (
        "Simulation output must be a pure function of the seed; a "
        "wall-clock read makes runs unreproducible and breaks "
        "byte-identical telemetry."
    )
    example = "t0 = time.time()  # inside repro.simcore"
    fix_hint = (
        "Use Simulator.now (simulated time) or take the timestamp as "
        "a parameter."
    )

    def run(self) -> List[Finding]:
        """Simulation packages and the tests tree are in scope."""
        if (
            self.module.package not in SIMULATION_PACKAGES
            and not in_tests(self.module.module)
        ):
            return []
        return super().run()

    def message(self, dotted: str) -> str:
        """Name the host-clock call and the scope it sits in."""
        where = (
            f"simulation package '{self.module.package}'"
            if self.module.package in SIMULATION_PACKAGES
            else "the tests tree"
        )
        return (
            f"wall-clock call {dotted}() inside {where}; "
            "use the simulator's virtual time"
        )


@register
class StdlibRandomRule(_EffectRule):
    """Forbid the globally-seeded stdlib ``random`` module everywhere."""

    rule_id = "DET002"
    summary = (
        "no stdlib random.* calls; draw from a named RngRegistry stream "
        "so runs stay seed-reproducible and streams stay isolated"
    )
    rationale = (
        "The global random module is one shared stream: any new draw "
        "site reorders every later draw and changes results for "
        "unrelated components."
    )
    example = "jitter = random.gauss(0, 1)"
    fix_hint = (
        "Draw from a named RngRegistry stream: rng = "
        "registry.stream('wireless'); rng.gauss(0, 1)."
    )

    def message(self, dotted: str) -> str:
        """Name the stdlib random call."""
        return (
            f"stdlib random call {dotted}() uses hidden global state; "
            "use RngRegistry.stream(name) instead"
        )


@register
class NumpyGlobalRngRule(_EffectRule):
    """Forbid numpy global-state RNG and unseeded ``default_rng()``."""

    rule_id = "DET003"
    summary = (
        "no numpy.random global-state calls and no unseeded "
        "default_rng(); RNG streams come from RngRegistry"
    )
    rationale = (
        "numpy's global RNG and unseeded default_rng() have the same "
        "reproducibility failure as DET002, just in numpy code."
    )
    example = "noise = numpy.random.normal(size=n)"
    fix_hint = "Take a Generator from RngRegistry and call its methods."

    def message(self, dotted: str) -> str:
        """Unseeded default_rng() or a global-state call."""
        if dotted == "numpy.random.default_rng":
            return (
                "unseeded numpy.random.default_rng() draws OS entropy; "
                "seed it from an RngRegistry stream"
            )
        return (
            f"numpy global-state RNG call {dotted}(); "
            "use a Generator from RngRegistry.stream(name)"
        )
