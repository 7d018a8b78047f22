"""Server/client exchange over the mini topology."""

import pytest

from repro.ntp.server import ServerConfig, ServerPersona
from repro.simcore.simulator import Simulator
from tests.ntp.helpers import MiniNet, drifting_clock, perfect_clock


def _results_of(net, server="s1", timeout=None, n=1):
    results = []
    for _ in range(n):
        net.client.query(server, results.append, timeout=timeout)
    return results


def test_exchange_measures_zero_offset_on_synced_clocks():
    sim = Simulator(seed=1)
    net = MiniNet(sim, [ServerConfig(name="s1", processing_delay=1e-6)])
    results = _results_of(net)
    sim.run_until(1.0)
    assert len(results) == 1
    assert results[0].ok
    assert results[0].sample.offset == pytest.approx(0.0, abs=1e-4)
    assert results[0].sample.delay == pytest.approx(0.050, abs=0.005)


def test_exchange_measures_client_offset():
    sim = Simulator(seed=1)
    net = MiniNet(
        sim,
        [ServerConfig(name="s1", processing_delay=1e-6)],
        client_clock=None,
    )
    net.client_clock.step(-0.2)  # client 200 ms slow
    results = _results_of(net)
    sim.run_until(1.0)
    assert results[0].sample.offset == pytest.approx(0.2, abs=1e-3)


def test_falseticker_bias_visible():
    sim = Simulator(seed=1)
    net = MiniNet(
        sim,
        [ServerConfig(
            name="liar", persona=ServerPersona.FALSETICKER,
            falseticker_bias=0.3, processing_delay=1e-6,
        )],
    )
    results = _results_of(net, server="liar")
    sim.run_until(1.0)
    assert results[0].sample.offset == pytest.approx(0.3, abs=1e-3)


def test_unresponsive_server_times_out():
    sim = Simulator(seed=1)
    net = MiniNet(
        sim,
        [ServerConfig(name="deaf", persona=ServerPersona.UNRESPONSIVE, drop_rate=1.0)],
    )
    results = _results_of(net, server="deaf", timeout=0.5)
    sim.run_until(2.0)
    assert len(results) == 1
    assert results[0].timed_out
    assert not results[0].ok
    assert net.client.timeouts == 1


def test_noisy_server_jitters():
    sim = Simulator(seed=1)
    net = MiniNet(
        sim,
        [ServerConfig(
            name="noisy", persona=ServerPersona.NOISY, noisy_sigma=0.05,
            processing_delay=1e-6,
        )],
    )
    results = []
    for i in range(20):
        sim.call_after(i * 1.0, lambda: net.client.query("noisy", results.append))
    sim.run_until(30.0)
    offsets = [r.sample.offset for r in results if r.ok]
    import numpy as np

    assert np.std(offsets) > 0.01


def test_server_echoes_origin_timestamp():
    sim = Simulator(seed=1)
    net = MiniNet(sim, [ServerConfig(name="s1")])
    results = _results_of(net)
    sim.run_until(1.0)
    # Request/response matching worked, so origin echo was correct.
    assert results[0].ok


def test_server_ignores_non_client_mode():
    sim = Simulator(seed=1)
    net = MiniNet(sim, [ServerConfig(name="s1")])
    server = net.servers["s1"]
    from repro.net.message import Datagram
    from repro.ntp.constants import Mode
    from repro.ntp.packet import NtpPacket

    bad = NtpPacket(mode=Mode.SERVER, transmit_ts=1.0)
    server.on_datagram(Datagram(payload=bad.encode(), src="x", dst="s1"))
    sim.run_until(1.0)
    assert server.responses_sent == 0


def test_server_ignores_malformed():
    sim = Simulator(seed=1)
    net = MiniNet(sim, [ServerConfig(name="s1")])
    from repro.net.message import Datagram

    net.servers["s1"].on_datagram(Datagram(payload=b"junk", src="x", dst="s1"))
    sim.run_until(1.0)
    assert net.servers["s1"].responses_sent == 0


def test_concurrent_queries_all_resolve():
    """Same-instant queries share a T1 key; the FIFO matching must
    resolve every one (regression test for the discipline stall)."""
    sim = Simulator(seed=1)
    configs = [ServerConfig(name=f"s{i}", processing_delay=1e-6) for i in range(4)]
    net = MiniNet(sim, configs)
    results = []
    for i in range(4):
        net.client.query(f"s{i}", results.append)
    sim.run_until(2.0)
    assert len(results) == 4
    assert all(r.ok for r in results)


def test_counters_track_traffic():
    sim = Simulator(seed=1)
    net = MiniNet(sim, [ServerConfig(name="s1", processing_delay=1e-6)])
    _results_of(net, n=3)
    sim.run_until(2.0)
    assert net.client.queries_sent == 3
    assert net.client.responses_received == 3
    assert net.servers["s1"].requests_seen == 3
