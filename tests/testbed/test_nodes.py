"""Testbed topology wiring."""

import pytest

from repro.simcore.simulator import Simulator
from repro.testbed.nodes import OS_REFERENCE, POOL_NAMES, Testbed, TestbedOptions
from repro.wireless.hints import StaticHintProvider


def test_wireless_testbed_has_channel_and_monitor():
    sim = Simulator(seed=1)
    tb = Testbed(sim, TestbedOptions(wireless=True, ntp_correction=True))
    assert tb.channel is not None
    assert tb.monitor is not None
    assert tb.ntpd is not None
    assert tb.wap is not None


def test_wired_testbed_has_no_channel():
    sim = Simulator(seed=1)
    tb = Testbed(sim, TestbedOptions(wireless=False))
    assert tb.channel is None
    assert tb.monitor is None
    assert isinstance(tb.hints, StaticHintProvider)


def test_all_pools_registered():
    sim = Simulator(seed=1)
    tb = Testbed(sim, TestbedOptions(pool_size=3))
    for pool in POOL_NAMES + (OS_REFERENCE,):
        assert len(tb.dns.members(pool)) == 3


def test_sntp_query_roundtrip_wired():
    sim = Simulator(seed=1)
    tb = Testbed(sim, TestbedOptions(wireless=False, ntp_correction=False))
    results = []
    tb.sntp_app.query("0.pool.ntp.org", results.append)
    sim.run_until(5.0)
    assert len(results) == 1
    assert results[0].ok
    assert abs(results[0].sample.offset) < 0.05


def test_separate_client_sockets():
    sim = Simulator(seed=1)
    tb = Testbed(sim, TestbedOptions(wireless=False, ntp_correction=True))
    assert tb.sntp_app is not tb.mntp_app
    assert tb.sntp_app.clock is tb.mntp_app.clock  # same system clock


def test_falseticker_option_biases_one_member_per_pool():
    sim = Simulator(seed=1)
    tb = Testbed(sim, TestbedOptions(include_falseticker=True, pool_size=4))
    from repro.ntp.server import ServerPersona

    for pool in POOL_NAMES:
        personas = [m.config.persona for m in tb.dns.members(pool)]
        assert personas.count(ServerPersona.FALSETICKER) == 1


def test_initial_clock_offset_applied():
    sim = Simulator(seed=1)
    tb = Testbed(sim, TestbedOptions(wireless=False, initial_clock_offset=0.5))
    assert tb.tn_clock.true_offset() == pytest.approx(0.5, abs=1e-6)


def test_start_stop_background_wireless():
    sim = Simulator(seed=1)
    tb = Testbed(sim, TestbedOptions(wireless=True, ntp_correction=True))
    tb.start_background()
    sim.run_until(60.0)
    tb.stop_background()
    assert tb.ntpd.updates >= 0  # ran without crashing


def test_pool_resolution_rewrites_destination():
    sim = Simulator(seed=1)
    tb = Testbed(sim, TestbedOptions(wireless=False))
    results = []
    tb.sntp_app.query("1.pool.ntp.org", results.append)
    sim.run_until(5.0)
    assert results[0].ok
    assert results[0].server_name.startswith("1.pool.ntp.org#")
