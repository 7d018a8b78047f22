"""Declarative, JSON-round-trippable scenario specifications.

A :class:`ScenarioSpec` is the data-file form of a testbed experiment:
topology switches, wireless regime, request cadence, duration, the
MNTP/SNTP/hardening configuration, an embedded
:class:`~repro.faults.schedule.FaultSchedule`, and a *guarantees* block
that embeds :class:`~repro.obs.health.SloSpec` verbatim — the health
layer already defines the declarative, unit-suffixed guarantee schema,
so specs reuse it rather than inventing a second one.

Guarantees come in two tiers, after boardfarm-bdd's Success/Minimal
Guarantee rule:

* ``guarantees`` — the Success tier.  The run is judged healthy only
  when its :func:`~repro.obs.health.judge_health` verdict against this
  spec is not ``violated``.
* ``minimal_guarantees`` — the optional Minimal tier.  When the
  Success tier is violated, the same result is judged against this
  (laxer) spec; holding it downgrades the outcome to ``minimal``
  instead of a hard ``failed``.

Every block is read by the typed codec (:mod:`repro.codec`) from its
dataclass's field types: unknown keys are rejected at every nesting
level, ``"false"`` is not a boolean and ``"2"`` is not a number, numeric
fields carry unit suffixes (``duration_s``, ``cadence_s``,
``initial_clock_offset_s``), and error messages name the offending path
(``spec.mntp.query_timeout must be a finite number, got '2'``) so a
typo'd spec fails loudly instead of silently running the wrong
experiment.

The checked-in ``scenarios/*.json`` files are the only definition of
a named scenario: :func:`run_scenario` loads ``scenarios/<name>.json``
and runs it, and :func:`scenario_names` lists the directory.  The
matrix runner (:mod:`repro.testbed.matrix`) executes a directory of
these files and aggregates the verdicts.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.clock.temperature import TemperatureProfile
from repro.codec import decode, encode
from repro.core.config import MntpConfig
from repro.faults.schedule import FaultSchedule
from repro.ntp.sntp_client import HardeningPolicy
from repro.obs.health import SloSpec, judge_health
from repro.testbed.catalog import SCENARIO_DIR, iter_spec_files, scenario_names
from repro.testbed.experiment import ExperimentResult, ExperimentRunner
from repro.testbed.nodes import TestbedOptions

#: Format tag carried by every spec document.
SPEC_FORMAT = "mntp-scenario-spec-v1"

#: Judgement statuses in tier order; ``success`` and ``minimal`` keep
#: the matrix green, everything else is a hard failure.
JUDGEMENT_STATUSES = ("success", "minimal", "failed")


# -- topology --------------------------------------------------------------


@dataclass(frozen=True)
class TopologySpec:
    """Environment switches of a scenario, in spec-file form.

    A declarative subset of :class:`~repro.testbed.nodes.TestbedOptions`
    covering everything the named scenarios vary; process-model
    parameter blocks (channel, effects, cross-traffic, monitor) keep
    their defaults — a future schema revision can add them as nested
    blocks when a scenario needs to vary them.

    Attributes:
        wireless: Wireless last hop (False = wired ethernet).
        ntp_correction: Run ntpd on the TN to discipline its clock.
        monitor_active: Run the MN degradation loop (wireless only).
        pool_size: Member servers per pool hostname.
        include_falseticker: One biased member per pool (exercises
            MNTP's warm-up rejection).
        initial_clock_offset_s: TN clock offset at boot (seconds).
        wired_base_delay_s: Mean one-way propagation to pool servers.
        temperature: Optional ambient profile for the TN oscillator.
    """

    wireless: bool = True
    ntp_correction: bool = True
    monitor_active: bool = True
    pool_size: int = 4
    include_falseticker: bool = False
    initial_clock_offset_s: float = 0.0
    wired_base_delay_s: float = 0.025
    temperature: Optional[TemperatureProfile] = None

    def __post_init__(self) -> None:
        """Validate the structural fields."""
        if self.pool_size < 1:
            raise ValueError("topology.pool_size must be >= 1")
        if not self.wired_base_delay_s > 0:
            raise ValueError("topology.wired_base_delay_s must be positive")


# -- the spec itself -------------------------------------------------------


@dataclass(frozen=True)
class ScenarioSpec:
    """One experiment condition with its pass/fail guarantees, as data.

    Attributes:
        name: Spec identifier; must be a valid filename stem.
        description: What condition the spec reproduces.
        duration_s: Virtual seconds to simulate.
        cadence_s: SNTP request cadence in seconds.
        run_sntp: Whether the unmodified SNTP client also runs.
        topology: Environment switches (:class:`TopologySpec`).
        mntp: MNTP configuration, or None for SNTP-only runs.
        hardening: Optional robustness policy for the MNTP app's SNTP
            client.
        faults: Optional fault episodes to inject; None runs benign.
        guarantees: Success-tier :class:`SloSpec`; the run's health
            verdict against it decides ``success``.
        minimal_guarantees: Optional Minimal-tier :class:`SloSpec`;
            judged when the Success tier is violated, and deciding
            ``minimal`` vs the hard-fail ``failed``.
        tags: Free-form labels; the matrix CLI's ``--smoke`` selects
            specs tagged ``"smoke"``.
    """

    name: str
    description: str = ""
    duration_s: float = 3600.0
    cadence_s: float = 5.0
    run_sntp: bool = True
    topology: TopologySpec = field(default_factory=TopologySpec)
    mntp: Optional[MntpConfig] = None
    hardening: Optional[HardeningPolicy] = None
    faults: Optional[FaultSchedule] = None
    guarantees: SloSpec = field(default_factory=SloSpec)
    minimal_guarantees: Optional[SloSpec] = None
    tags: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        """Validate identity, timing, and tag fields."""
        if not self.name or any(c in self.name for c in "/\\ \t\n"):
            raise ValueError(
                f"spec name must be a non-empty filename stem without "
                f"separators or whitespace, got {self.name!r}"
            )
        if not self.duration_s > 0:
            raise ValueError("spec.duration_s must be positive")
        if not self.cadence_s > 0:
            raise ValueError("spec.cadence_s must be positive")
        if not all(self.tags):
            raise ValueError("tags must be non-empty strings")

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready document (stable key set, format-tagged)."""
        return {"format": SPEC_FORMAT, **encode(self)}

    @classmethod
    def from_dict(cls, data: Any) -> "ScenarioSpec":
        """Rebuild a spec; a wrong format tag, an unknown or missing key
        or a wrong type raises ``ValueError`` naming its path."""
        if isinstance(data, dict):
            data = dict(data)
            fmt = data.pop("format", None)
            if fmt != SPEC_FORMAT:
                raise ValueError(
                    f"spec.format must be {SPEC_FORMAT!r}, got {fmt!r}"
                )
        return decode(cls, data, "spec")

    def to_json(self) -> str:
        """Canonical JSON encoding (sorted keys, trailing newline)."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        """Parse :meth:`to_json` output (strict, like :meth:`from_dict`)."""
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise ValueError(f"spec is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    def build_options(self) -> TestbedOptions:
        """The :class:`TestbedOptions` this spec describes."""
        topology = self.topology
        return TestbedOptions(
            wireless=topology.wireless,
            ntp_correction=topology.ntp_correction,
            monitor_active=topology.monitor_active,
            pool_size=topology.pool_size,
            include_falseticker=topology.include_falseticker,
            initial_clock_offset=topology.initial_clock_offset_s,
            temperature=topology.temperature,
            wired_base_delay=topology.wired_base_delay_s,
            fault_schedule=self.faults,
            mntp_hardening=self.hardening,
        )

    def build_runner(self, seed: int = 0) -> ExperimentRunner:
        """An :class:`ExperimentRunner` for this spec.

        The runner never judges the run: :func:`judge_result` (or
        :func:`~repro.obs.health.judge_health`) judges its result
        afterwards.
        """
        return ExperimentRunner(
            seed=seed,
            options=self.build_options(),
            duration=self.duration_s,
            sntp_cadence=self.cadence_s,
            run_sntp=self.run_sntp,
            mntp_config=self.mntp,
        )


# -- persistence -----------------------------------------------------------


def save_spec(spec: ScenarioSpec, path: str) -> None:
    """Write one spec as canonical JSON."""
    with open(path, "w") as f:
        f.write(spec.to_json())


def load_spec(path: str) -> ScenarioSpec:
    """Load one spec file; errors are prefixed with the path."""
    try:
        with open(path) as f:
            text = f.read()
    except OSError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    try:
        return ScenarioSpec.from_json(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def load_spec_dir(directory: str) -> List[ScenarioSpec]:
    """Load every spec in a directory (strict: first bad file raises).

    The fault-tolerant per-file treatment lives in the matrix runner;
    this loader is for callers that want all-or-nothing semantics.
    """
    specs = [load_spec(path) for path in iter_spec_files(directory)]
    seen: Dict[str, str] = {}
    for path, spec in zip(iter_spec_files(directory), specs):
        if spec.name in seen:
            raise ValueError(
                f"{path}: duplicate spec name {spec.name!r} "
                f"(also defined by {seen[spec.name]})"
            )
        seen[spec.name] = path
    return specs


# -- the checked-in scenarios ---------------------------------------------


def load_scenario(name: str) -> ScenarioSpec:
    """The spec of a checked-in scenario.

    Raises:
        KeyError: ``name`` is not one of :func:`scenario_names` (this
            includes paths such as ``"../x"``).
    """
    if name not in scenario_names():
        raise KeyError(name)
    return load_spec(os.path.join(SCENARIO_DIR, f"{name}.json"))


def run_scenario(name: str, seed: int = 0) -> ExperimentResult:
    """Run the named scenario ``scenarios/<name>.json``.

    Args:
        name: One of :func:`scenario_names`; anything else raises
            :class:`KeyError` (see :func:`load_scenario`).
        seed: Root seed for the run.
    """
    return load_scenario(name).build_runner(seed=seed).run()


# -- execution + judging ---------------------------------------------------


def judge_result(
    spec: ScenarioSpec, result: ExperimentResult
) -> Dict[str, Any]:
    """Success/Minimal-tier judgement of one executed spec.

    Returns a dict with ``status`` (one of
    :data:`JUDGEMENT_STATUSES`), the Success-tier ``guarantees`` health
    report, and — when the Minimal tier was consulted — its
    ``minimal_guarantees`` report (None otherwise).  Both tiers are
    judged by :func:`~repro.obs.health.judge_health`, which raises
    ``ValueError`` for a result that lacks what it reads.
    """
    guarantees, _rows = judge_health(result, spec.guarantees)
    minimal: Optional[Dict[str, Any]] = None
    if guarantees["verdict"] != "violated":
        status = "success"
    elif spec.minimal_guarantees is not None:
        minimal, _rows = judge_health(result, spec.minimal_guarantees)
        status = "minimal" if minimal["verdict"] != "violated" else "failed"
    else:
        status = "failed"
    return {
        "status": status,
        "guarantees": guarantees,
        "minimal_guarantees": minimal,
    }


def run_spec(
    spec: ScenarioSpec, seed: int = 0
) -> Tuple[ExperimentResult, Dict[str, Any]]:
    """Run one spec and judge it; returns (result, judgement)."""
    result = spec.build_runner(seed=seed).run()
    return result, judge_result(spec, result)
