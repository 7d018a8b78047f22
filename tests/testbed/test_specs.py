"""ScenarioSpec: round-trip, strict validation, shipped files, judging."""

import math
import re
from pathlib import Path

import pytest

from repro.clock.temperature import DiurnalTemperature
from repro.faults.schedule import FaultKind
from repro.obs.health import SloSpec, judge_health, smoke_spec
from repro.testbed.catalog import SCENARIO_DIR, scenario_names
from repro.testbed.specs import (
    SPEC_FORMAT,
    ScenarioSpec,
    TopologySpec,
    judge_result,
    load_scenario,
    load_spec,
    load_spec_dir,
    run_spec,
    save_spec,
)

REPO_SPEC_DIR = Path(__file__).resolve().parents[2] / "scenarios"
SPEC_FILES = sorted(REPO_SPEC_DIR.glob("*.json"))


# -- the shipped spec files ------------------------------------------------


def test_every_default_spec_round_trips():
    for spec in load_spec_dir(str(REPO_SPEC_DIR)):
        assert ScenarioSpec.from_json(spec.to_json()) == spec


@pytest.mark.parametrize("path", SPEC_FILES, ids=lambda p: p.stem)
def test_checked_in_spec_file_is_canonical(path):
    spec = load_spec(str(path))
    assert path.read_bytes() == spec.to_json().encode(), (
        f"{path.name} is not in canonical form; rewrite it with "
        "save_spec(load_spec(path), path)"
    )
    assert spec.name == path.stem


def test_named_scenarios_derive_equivalent_options():
    for spec in load_spec_dir(str(REPO_SPEC_DIR)):
        options = spec.build_options()
        topology = spec.topology
        assert options.wireless == topology.wireless
        assert options.ntp_correction == topology.ntp_correction
        assert options.monitor_active == topology.monitor_active
        assert options.pool_size == topology.pool_size
        assert options.include_falseticker == topology.include_falseticker
        assert options.initial_clock_offset == topology.initial_clock_offset_s
        assert options.wired_base_delay == topology.wired_base_delay_s
        assert options.temperature == topology.temperature
        assert options.fault_schedule == spec.faults
        assert options.mntp_hardening == spec.hardening


def test_chaos_full_spec_carries_the_twelve_episode_matrix():
    spec = load_scenario("chaos_full")
    assert len(spec.faults.episodes) == 12
    assert spec.minimal_guarantees is not None
    rt = ScenarioSpec.from_json(spec.to_json())
    assert rt.faults == spec.faults
    assert rt.minimal_guarantees == spec.minimal_guarantees


def test_chaos_full_covers_every_fault_kind():
    kinds = {e.kind for e in load_scenario("chaos_full").faults}
    assert kinds == set(FaultKind)
    smoke_kinds = {e.kind for e in load_scenario("chaos_smoke").faults}
    assert smoke_kinds < kinds


def test_chaos_smoke_spec_embeds_the_smoke_slo_verbatim():
    spec = load_scenario("chaos_smoke")
    assert spec.guarantees == smoke_spec()
    assert spec.minimal_guarantees is None


def test_load_spec_dir_round_trips_the_shipped_set():
    specs = load_spec_dir(str(REPO_SPEC_DIR))
    assert Path(SCENARIO_DIR) == REPO_SPEC_DIR
    assert [s.name for s in specs] == scenario_names()
    assert scenario_names() == [p.stem for p in SPEC_FILES]
    for spec in specs:
        assert spec == load_scenario(spec.name)


def test_load_spec_dir_rejects_duplicate_names(tmp_path):
    spec = load_scenario("wired_corrected")
    save_spec(spec, str(tmp_path / "a.json"))
    save_spec(spec, str(tmp_path / "b.json"))
    with pytest.raises(ValueError, match="duplicate spec name"):
        load_spec_dir(str(tmp_path))


# -- strict validation -----------------------------------------------------


def base_dict():
    return load_scenario("wired_corrected").to_dict()


def test_unknown_top_level_key_rejected():
    data = base_dict()
    data["durationn_s"] = 60.0
    with pytest.raises(ValueError, match="spec: unknown keys.*durationn_s"):
        ScenarioSpec.from_dict(data)


def test_unknown_topology_key_rejected():
    data = base_dict()
    data["topology"]["wirelesss"] = True
    with pytest.raises(ValueError,
                       match="spec.topology: unknown keys.*wirelesss"):
        ScenarioSpec.from_dict(data)


def test_unknown_guarantee_key_names_the_block():
    data = base_dict()
    data["guarantees"]["p99_abs_error_violate"] = 10.0
    with pytest.raises(ValueError, match="spec.guarantees:.*unknown"):
        ScenarioSpec.from_dict(data)


def test_unknown_mntp_key_rejected():
    data = load_scenario("chaos_smoke").to_dict()
    data["mntp"]["warmup_periods"] = 1.0
    with pytest.raises(ValueError, match="spec.mntp: unknown keys"):
        ScenarioSpec.from_dict(data)


def test_unknown_fault_episode_key_carries_its_index():
    data = load_scenario("chaos_smoke").to_dict()
    data["faults"]["episodes"][1]["strt"] = 1.0
    with pytest.raises(ValueError,
                       match=r"spec.faults.episodes\[1\]: unknown keys"):
        ScenarioSpec.from_dict(data)


def test_wrong_format_tag_rejected():
    data = base_dict()
    data["format"] = "mntp-scenario-spec-v0"
    with pytest.raises(ValueError, match=SPEC_FORMAT):
        ScenarioSpec.from_dict(data)


def test_unknown_temperature_profile_rejected():
    data = base_dict()
    data["topology"]["temperature"] = {"profile": "volcanic", "celsius_c": 9000}
    with pytest.raises(ValueError, match="spec.topology.temperature.profile"):
        ScenarioSpec.from_dict(data)


@pytest.mark.parametrize("value", [None, "abc", True, math.nan])
def test_temperature_values_must_be_finite_numbers(value):
    data = base_dict()
    data["topology"]["temperature"] = {"profile": "diurnal", "mean_c": value}
    with pytest.raises(
        ValueError,
        match="spec.topology.temperature.mean_c must be a finite number",
    ):
        ScenarioSpec.from_dict(data)


@pytest.mark.parametrize("value", [None, "x", True, math.inf])
def test_mntp_thresholds_must_be_finite_numbers(value):
    data = load_scenario("chaos_smoke").to_dict()
    data["mntp"]["thresholds"]["min_rssi_dbm"] = value
    with pytest.raises(
        ValueError,
        match="spec.mntp.thresholds.min_rssi_dbm must be a finite number",
    ):
        ScenarioSpec.from_dict(data)


@pytest.mark.parametrize("value", [5, "abc", ["pool.ntp.org", 3], None])
def test_mntp_warmup_pools_must_be_a_list_of_strings(value):
    data = load_scenario("chaos_smoke").to_dict()
    data["mntp"]["warmup_pools"] = value
    with pytest.raises(ValueError, match=r"spec\.mntp\.warmup_pools"
                       r"(: must be a list, got|\[1\] must be a string)"):
        ScenarioSpec.from_dict(data)


#: Mistyped values older loaders accepted, some coerced into a different
#: run: (path of the block, key, value, message naming the path).
MISTYPED = [
    (("hardening",), "failover", "false",
     "spec.hardening.failover must be a boolean, got 'false'"),
    (("mntp",), "enable_filter", "no",
     "spec.mntp.enable_filter must be a boolean, got 'no'"),
    (("mntp",), "query_timeout", "2",
     "spec.mntp.query_timeout must be a finite number, got '2'"),
    (("mntp",), "enable_hint_gate", 0,
     "spec.mntp.enable_hint_gate must be a boolean, got 0"),
    (("mntp",), "min_warmup_samples", 10.5,
     "spec.mntp.min_warmup_samples must be an integer, got 10.5"),
    (("mntp",), "regular_source", 5,
     "spec.mntp.regular_source must be a string, got 5"),
    (("mntp",), "hint_poll_interval", True,
     "spec.mntp.hint_poll_interval must be a finite number, got True"),
    (("faults", "episodes", 0), "start", "600",
     "spec.faults.episodes[0].start must be a finite number, got '600'"),
    (("faults", "episodes", 0), "start", True,
     "spec.faults.episodes[0].start must be a finite number, got True"),
    (("faults", "episodes", 0), "target", 5,
     "spec.faults.episodes[0].target must be a string, got 5"),
    (("faults",), "name", 7, "spec.faults.name must be a string, got 7"),
    ((), "tags", [1], "spec.tags[0] must be a string, got 1"),
]


@pytest.mark.parametrize(
    "block,key,value,message", MISTYPED,
    ids=[".".join(map(str, (*b, k))) + f"={v!r}" for b, k, v, _m in MISTYPED],
)
def test_mistyped_values_are_rejected_with_their_path(block, key, value,
                                                      message):
    data = load_scenario("chaos_smoke").to_dict()
    target = data
    for step in block:
        target = target[step]
    target[key] = value
    with pytest.raises(ValueError, match=re.escape(message)):
        ScenarioSpec.from_dict(data)


def test_temperature_profiles_round_trip():
    spec = load_scenario("mntp_insitu_24h")
    rt = ScenarioSpec.from_json(spec.to_json())
    assert rt.topology.temperature == spec.topology.temperature
    assert rt.build_options().temperature == DiurnalTemperature(
        mean_c=26.0, amplitude_c=8.0
    )


def test_invalid_timing_fields_rejected():
    with pytest.raises(ValueError, match="duration_s must be positive"):
        ScenarioSpec(name="x", duration_s=0.0)
    with pytest.raises(ValueError, match="cadence_s must be positive"):
        ScenarioSpec(name="x", cadence_s=-5.0)
    with pytest.raises(ValueError, match="filename stem"):
        ScenarioSpec(name="a/b")
    with pytest.raises(ValueError, match="pool_size"):
        TopologySpec(pool_size=0)
    # Wrong JSON types are rejected, not coerced into a different run.
    bad_values = [
        ("duration_s", math.nan, "spec.duration_s must be a finite number"),
        ("duration_s", True, "spec.duration_s must be a finite number"),
        ("cadence_s", math.inf, "spec.cadence_s must be a finite number"),
        ("run_sntp", "false", "spec.run_sntp must be a boolean"),
        ("description", 5, "spec.description must be a string"),
        ("name", 5, "spec.name must be a string"),
    ]
    for key, value, message in bad_values:
        data = base_dict()
        data[key] = value
        with pytest.raises(ValueError, match=message):
            ScenarioSpec.from_dict(data)
    bad_topology = [
        ("wireless", "no", "topology.wireless must be a boolean"),
        ("pool_size", 2.5, "topology.pool_size must be an integer"),
        ("pool_size", True, "topology.pool_size must be an integer"),
        ("wired_base_delay_s", math.nan,
         "topology.wired_base_delay_s must be a finite number"),
    ]
    for key, value, message in bad_topology:
        data = base_dict()
        data["topology"][key] = value
        with pytest.raises(ValueError, match=message):
            ScenarioSpec.from_dict(data)
    # JSON's non-finite literals take the same path.
    text = load_scenario("wired_corrected").to_json().replace(
        '"cadence_s": 5.0', '"cadence_s": Infinity'
    )
    with pytest.raises(ValueError, match="spec.cadence_s must be a finite"):
        ScenarioSpec.from_json(text)


def test_load_spec_prefixes_the_path(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ValueError, match="broken.json"):
        load_spec(str(path))


# -- execution + two-tier judging -----------------------------------------


def quick_spec(**overrides):
    """A fast wired spec for live judging tests."""
    defaults = dict(
        name="quick",
        duration_s=300.0,
        cadence_s=5.0,
        topology=TopologySpec(wireless=False, ntp_correction=True,
                              monitor_active=False),
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


def strict_slo():
    """Guarantees no real run can hold (p99 must stay under 1 µs)."""
    return SloSpec.from_dict({
        **SloSpec().to_dict(),
        "p99_abs_error_warn_ms": 0.0005,
        "p99_abs_error_violate_ms": 0.001,
    })


def lax_slo():
    """Guarantees any sane run holds."""
    return SloSpec.from_dict({
        **SloSpec().to_dict(),
        "p99_abs_error_warn_ms": 5000.0,
        "p99_abs_error_violate_ms": 10000.0,
    })


def test_success_tier():
    result, judgement = run_spec(quick_spec(guarantees=lax_slo()), seed=3)
    assert judgement["status"] == "success"
    assert judgement["guarantees"]["verdict"] != "violated"
    assert judgement["minimal_guarantees"] is None
    assert judgement["guarantees"] == judge_health(result, lax_slo())[0]


def test_minimal_tier_downgrades_a_violated_success_tier():
    spec = quick_spec(guarantees=strict_slo(), minimal_guarantees=lax_slo())
    _result, judgement = run_spec(spec, seed=3)
    assert judgement["guarantees"]["verdict"] == "violated"
    assert judgement["minimal_guarantees"]["verdict"] != "violated"
    assert judgement["status"] == "minimal"


def test_violating_both_tiers_is_a_hard_failure():
    spec = quick_spec(guarantees=strict_slo(),
                      minimal_guarantees=strict_slo())
    _result, judgement = run_spec(spec, seed=3)
    assert judgement["status"] == "failed"


def test_violated_without_minimal_tier_is_a_hard_failure():
    _result, judgement = run_spec(quick_spec(guarantees=strict_slo()),
                                  seed=3)
    assert judgement["status"] == "failed"
    assert judgement["minimal_guarantees"] is None


def test_judge_requires_recorded_failure_times():
    from repro.testbed.experiment import ExperimentResult

    # An archive written before failure times were recorded loads them
    # as None; judging it must fail loudly, not pass on missing data.
    for missing in ({"sntp_failure_times": None}, {"fault_windows": None}):
        with pytest.raises(ValueError, match="no SNTP failure times"):
            judge_result(quick_spec(), ExperimentResult(**missing))
