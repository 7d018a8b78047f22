"""Named scenarios: the checked-in spec files under ``scenarios/``."""

import pytest

from repro.testbed.catalog import scenario_names
from repro.testbed.specs import load_scenario, run_scenario


EXPECTED = {
    "wired_corrected",
    "wired_uncorrected",
    "wireless_corrected",
    "wireless_uncorrected",
    "mntp_wireless_corrected",
    "mntp_wireless_uncorrected",
    "mntp_longrun",
    "mntp_falsetickers",
}


def test_all_scenarios_registered():
    assert EXPECTED <= set(scenario_names())


def test_scenario_metadata_consistent():
    for name in scenario_names():
        spec = load_scenario(name)
        assert spec.name == name
        assert spec.duration_s > 0
        assert spec.description


@pytest.mark.parametrize("name", scenario_names())
def test_scenario_name_matches_its_conditions(name):
    """Name tokens (wired/wireless, corrected/uncorrected, mntp_) agree
    with the spec's topology and protocol blocks."""
    spec = load_scenario(name)
    tokens = name.split("_")
    if "wired" in tokens:
        assert spec.topology.wireless is False
    if "wireless" in tokens:
        assert spec.topology.wireless is True
    if "corrected" in tokens:
        assert spec.topology.ntp_correction is True
    if "uncorrected" in tokens:
        assert spec.topology.ntp_correction is False
    if tokens[0] == "mntp":
        assert spec.mntp is not None
    assert spec.run_sntp or spec.mntp is not None


def test_mntp_scenarios_have_configs():
    assert load_scenario("mntp_wireless_corrected").mntp is not None
    assert load_scenario("wired_corrected").mntp is None


def test_longrun_is_four_hours():
    assert load_scenario("mntp_longrun").duration_s == 4 * 3600.0


def test_unknown_scenario_raises():
    for name in ("nope", "../scenarios/wired_corrected", "wired_corrected.json"):
        with pytest.raises(KeyError):
            run_scenario(name)


def test_correction_flags_match_names():
    def options(name):
        return load_scenario(name).build_options()

    assert options("wired_corrected").ntp_correction
    assert not options("wired_uncorrected").ntp_correction
    assert not options("wireless_uncorrected").ntp_correction
    assert options("wired_corrected").wireless is False
    assert options("wireless_corrected").wireless is True
