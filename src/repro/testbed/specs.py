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

Validation mirrors ``SloSpec``: unknown keys are rejected at every
nesting level, numeric fields carry unit suffixes (``duration_s``,
``cadence_s``, ``initial_clock_offset_s``), and error messages name the
offending path so a typo'd spec fails loudly instead of silently
running the wrong experiment.

The checked-in ``scenarios/*.json`` files are the only definition of
a named scenario: :func:`run_scenario` loads ``scenarios/<name>.json``
and runs it, and :func:`scenario_names` lists the directory.  The
matrix runner (:mod:`repro.testbed.matrix`) executes a directory of
these files and aggregates the verdicts.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Optional, Tuple

from repro.clock.temperature import (
    ConstantTemperature,
    DiurnalTemperature,
    RampTemperature,
    TemperatureProfile,
)
from repro.core.config import HintThresholds, MntpConfig
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


def _reject_unknown_keys(
    data: Dict[str, Any], known: Any, where: str
) -> None:
    """Raise a path-carrying error when ``data`` has unexpected keys."""
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ValueError(
            f"{where}: unknown keys {unknown}; known keys are "
            f"{sorted(known)}"
        )


def _require_mapping(value: Any, where: str) -> Dict[str, Any]:
    """Raise unless ``value`` is a JSON object; return it typed."""
    if not isinstance(value, dict):
        raise ValueError(f"{where} must be a JSON object, got "
                         f"{type(value).__name__}")
    return value


def _require_bool(value: Any, where: str) -> None:
    """Raise unless ``value`` is a JSON boolean (``"false"`` is not)."""
    if not isinstance(value, bool):
        raise ValueError(f"{where} must be a boolean, got {value!r}")


def _require_number(value: Any, where: str) -> None:
    """Raise unless ``value`` is a finite int/float (bools excluded)."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value)):
        raise ValueError(f"{where} must be a finite number, got {value!r}")


def _require_str(value: Any, where: str) -> None:
    """Raise unless ``value`` is a string."""
    if not isinstance(value, str):
        raise ValueError(f"{where} must be a string, got {value!r}")


# -- temperature profiles --------------------------------------------------

#: Spec-file profile names mapped to (class, unit-suffixed spec keys,
#: constructor keyword per key).  Spec keys follow the unit-suffix
#: convention even where the constructor predates it (``celsius_c``).
_TEMPERATURE_PROFILES: Dict[str, Tuple[type, Tuple[Tuple[str, str], ...]]] = {
    "constant": (ConstantTemperature, (("celsius_c", "celsius"),)),
    "diurnal": (
        DiurnalTemperature,
        (("mean_c", "mean_c"), ("amplitude_c", "amplitude_c"),
         ("period_s", "period_s"), ("phase_s", "phase_s")),
    ),
    "ramp": (
        RampTemperature,
        (("start_c", "start_c"), ("end_c", "end_c"),
         ("ramp_duration_s", "ramp_duration_s")),
    ),
}


def _temperature_to_dict(profile: TemperatureProfile) -> Dict[str, Any]:
    """Serialize a temperature profile to its spec-file form."""
    for name, (cls, keys) in _TEMPERATURE_PROFILES.items():
        if type(profile) is cls:
            out: Dict[str, Any] = {"profile": name}
            for spec_key, attr in keys:
                out[spec_key] = getattr(profile, attr)
            return out
    raise ValueError(
        f"temperature profile {type(profile).__name__} has no spec-file "
        "form; supported profiles: "
        f"{sorted(_TEMPERATURE_PROFILES)}"
    )


def _temperature_from_dict(
    data: Dict[str, Any], where: str
) -> TemperatureProfile:
    """Rebuild a temperature profile; unknown profiles/keys raise."""
    data = _require_mapping(data, where)
    name = data.get("profile")
    if name not in _TEMPERATURE_PROFILES:
        raise ValueError(
            f"{where}.profile must be one of "
            f"{sorted(_TEMPERATURE_PROFILES)}, got {name!r}"
        )
    cls, keys = _TEMPERATURE_PROFILES[name]
    _reject_unknown_keys(data, {"profile", *(k for k, _ in keys)}, where)
    kwargs: Dict[str, float] = {}
    for spec_key, attr in keys:
        if spec_key in data:
            _require_number(data[spec_key], f"{where}.{spec_key}")
            kwargs[attr] = float(data[spec_key])
    return cls(**kwargs)


# -- embedded config blocks ------------------------------------------------


def _mntp_to_dict(config: MntpConfig) -> Dict[str, Any]:
    """Serialize an :class:`MntpConfig` field-for-field."""
    out: Dict[str, Any] = {}
    for f in fields(MntpConfig):
        value = getattr(config, f.name)
        if f.name == "thresholds":
            out[f.name] = {tf.name: getattr(value, tf.name)
                           for tf in fields(HintThresholds)}
        elif f.name == "warmup_pools":
            out[f.name] = list(value)
        else:
            out[f.name] = value
    return out


def _mntp_from_dict(data: Dict[str, Any], where: str) -> MntpConfig:
    """Rebuild an :class:`MntpConfig`; unknown keys raise."""
    data = _require_mapping(data, where)
    _reject_unknown_keys(data, {f.name for f in fields(MntpConfig)}, where)
    kwargs = dict(data)
    if "thresholds" in kwargs:
        thresholds = _require_mapping(kwargs["thresholds"],
                                      f"{where}.thresholds")
        _reject_unknown_keys(
            thresholds, {f.name for f in fields(HintThresholds)},
            f"{where}.thresholds",
        )
        for key, value in thresholds.items():
            _require_number(value, f"{where}.thresholds.{key}")
        kwargs["thresholds"] = HintThresholds(**thresholds)
    if "warmup_pools" in kwargs:
        pools = kwargs["warmup_pools"]
        if not isinstance(pools, list) or not all(
                isinstance(p, str) for p in pools):
            raise ValueError(f"{where}.warmup_pools must be a list of "
                             f"strings, got {pools!r}")
        kwargs["warmup_pools"] = tuple(pools)
    try:
        return MntpConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where}: {exc}") from exc


def _hardening_to_dict(policy: HardeningPolicy) -> Dict[str, Any]:
    """Serialize a :class:`HardeningPolicy` field-for-field."""
    return {f.name: getattr(policy, f.name) for f in fields(HardeningPolicy)}


def _hardening_from_dict(data: Dict[str, Any], where: str) -> HardeningPolicy:
    """Rebuild a :class:`HardeningPolicy`; unknown keys raise."""
    data = _require_mapping(data, where)
    _reject_unknown_keys(
        data, {f.name for f in fields(HardeningPolicy)}, where
    )
    try:
        return HardeningPolicy(**data)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where}: {exc}") from exc


def _slo_from_dict(data: Dict[str, Any], where: str) -> SloSpec:
    """Rebuild an embedded :class:`SloSpec`, prefixing errors with the
    spec path so "unknown SloSpec fields" names the guarantee block it
    came from."""
    data = _require_mapping(data, where)
    try:
        return SloSpec.from_dict(data)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where}: {exc}") from exc


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
        """Validate field types and the structural fields."""
        for name in ("wireless", "ntp_correction", "monitor_active",
                     "include_falseticker"):
            _require_bool(getattr(self, name), f"topology.{name}")
        for name in ("initial_clock_offset_s", "wired_base_delay_s"):
            _require_number(getattr(self, name), f"topology.{name}")
        pool_size = self.pool_size
        if isinstance(pool_size, bool) or not isinstance(pool_size, int):
            raise ValueError(
                f"topology.pool_size must be an integer, got {pool_size!r}"
            )
        if self.pool_size < 1:
            raise ValueError("topology.pool_size must be >= 1")
        if self.wired_base_delay_s <= 0:
            raise ValueError("topology.wired_base_delay_s must be positive")

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready field mapping (declaration order)."""
        out: Dict[str, Any] = {
            "wireless": self.wireless,
            "ntp_correction": self.ntp_correction,
            "monitor_active": self.monitor_active,
            "pool_size": self.pool_size,
            "include_falseticker": self.include_falseticker,
            "initial_clock_offset_s": self.initial_clock_offset_s,
            "wired_base_delay_s": self.wired_base_delay_s,
            "temperature": (
                None if self.temperature is None
                else _temperature_to_dict(self.temperature)
            ),
        }
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any],
                  where: str = "topology") -> "TopologySpec":
        """Rebuild a topology block; unknown keys raise."""
        data = _require_mapping(data, where)
        known = {
            "wireless", "ntp_correction", "monitor_active", "pool_size",
            "include_falseticker", "initial_clock_offset_s",
            "wired_base_delay_s", "temperature",
        }
        _reject_unknown_keys(data, known, where)
        kwargs = dict(data)
        temperature = kwargs.pop("temperature", None)
        if temperature is not None:
            temperature = _temperature_from_dict(
                temperature, f"{where}.temperature"
            )
        try:
            return cls(temperature=temperature, **kwargs)
        except TypeError as exc:
            raise ValueError(f"{where}: {exc}") from exc


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
        _require_str(self.name, "spec.name")
        if not self.name or any(c in self.name for c in "/\\ \t\n"):
            raise ValueError(
                f"spec name must be a non-empty filename stem without "
                f"separators or whitespace, got {self.name!r}"
            )
        _require_str(self.description, "spec.description")
        _require_bool(self.run_sntp, "spec.run_sntp")
        for name in ("duration_s", "cadence_s"):
            _require_number(getattr(self, name), f"spec.{name}")
        if self.duration_s <= 0:
            raise ValueError("spec.duration_s must be positive")
        if self.cadence_s <= 0:
            raise ValueError("spec.cadence_s must be positive")
        if not all(isinstance(tag, str) and tag for tag in self.tags):
            raise ValueError("tags must be non-empty strings")

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready document (stable key set, format-tagged)."""
        return {
            "format": SPEC_FORMAT,
            "name": self.name,
            "description": self.description,
            "duration_s": self.duration_s,
            "cadence_s": self.cadence_s,
            "run_sntp": self.run_sntp,
            "topology": self.topology.to_dict(),
            "mntp": None if self.mntp is None else _mntp_to_dict(self.mntp),
            "hardening": (
                None if self.hardening is None
                else _hardening_to_dict(self.hardening)
            ),
            "faults": None if self.faults is None else self.faults.to_dict(),
            "guarantees": self.guarantees.to_dict(),
            "minimal_guarantees": (
                None if self.minimal_guarantees is None
                else self.minimal_guarantees.to_dict()
            ),
            "tags": list(self.tags),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ScenarioSpec":
        """Rebuild a spec; wrong format tag or unknown keys raise."""
        data = _require_mapping(data, "spec")
        fmt = data.get("format")
        if fmt != SPEC_FORMAT:
            raise ValueError(
                f"spec.format must be {SPEC_FORMAT!r}, got {fmt!r}"
            )
        known = {
            "format", "name", "description", "duration_s", "cadence_s",
            "run_sntp", "topology", "mntp", "hardening", "faults",
            "guarantees", "minimal_guarantees", "tags",
        }
        _reject_unknown_keys(data, known, "spec")
        kwargs: Dict[str, Any] = {
            key: data[key]
            for key in ("name", "description", "duration_s", "cadence_s",
                        "run_sntp")
            if key in data
        }
        if "topology" in data:
            kwargs["topology"] = TopologySpec.from_dict(
                data["topology"], "spec.topology"
            )
        if data.get("mntp") is not None:
            kwargs["mntp"] = _mntp_from_dict(data["mntp"], "spec.mntp")
        if data.get("hardening") is not None:
            kwargs["hardening"] = _hardening_from_dict(
                data["hardening"], "spec.hardening"
            )
        if data.get("faults") is not None:
            try:
                kwargs["faults"] = FaultSchedule.from_dict(data["faults"])
            except ValueError as exc:
                raise ValueError(f"spec.{exc}") from exc
        if "guarantees" in data:
            kwargs["guarantees"] = _slo_from_dict(
                data["guarantees"], "spec.guarantees"
            )
        if data.get("minimal_guarantees") is not None:
            kwargs["minimal_guarantees"] = _slo_from_dict(
                data["minimal_guarantees"], "spec.minimal_guarantees"
            )
        if "tags" in data:
            tags = data["tags"]
            if not isinstance(tags, list):
                raise ValueError("spec.tags must be a list of strings")
            kwargs["tags"] = tuple(str(tag) for tag in tags)
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise ValueError(f"spec: {exc}") from exc

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
