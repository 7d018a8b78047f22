"""PingTool probing and rolling stats."""

import pytest

from repro.simcore.simulator import Simulator
from repro.testbed.pingtool import PingTool


def _echo_probe(rtt=0.05):
    """Probe fn that always answers with a fixed RTT."""

    def probe(on_result):
        on_result(rtt)

    return probe


def test_stats_empty_before_probes():
    sim = Simulator(seed=1)
    tool = PingTool(sim, _echo_probe())
    stats = tool.stats()
    assert stats.sent == 0
    assert stats.loss_fraction == 0.0
    assert stats.mean_rtt == 0.0


def test_probes_on_interval():
    sim = Simulator(seed=1)
    tool = PingTool(sim, _echo_probe(0.03), interval=1.0, window=100)
    tool.start()
    sim.run_until(10.5)
    stats = tool.stats()
    assert stats.sent == 11  # t=0..10
    assert stats.received == 11
    assert stats.mean_rtt == pytest.approx(0.03)
    assert stats.max_rtt == pytest.approx(0.03)


def test_loss_fraction():
    sim = Simulator(seed=1)
    calls = {"n": 0}

    def probe(on_result):
        calls["n"] += 1
        on_result(None if calls["n"] % 2 == 0 else 0.02)

    tool = PingTool(sim, probe, interval=1.0, window=100)
    tool.start()
    sim.run_until(9.5)
    stats = tool.stats()
    assert stats.loss_fraction == pytest.approx(0.5)


def test_window_limits_history():
    sim = Simulator(seed=1)
    tool = PingTool(sim, _echo_probe(), interval=1.0, window=5)
    tool.start()
    sim.run_until(20.0)
    assert tool.stats().sent == 5


def test_stop():
    sim = Simulator(seed=1)
    tool = PingTool(sim, _echo_probe(), interval=1.0, window=100)
    tool.start()
    sim.run_until(5.0)
    tool.stop()
    sent = tool.stats().sent
    sim.run_until(50.0)
    assert tool.stats().sent == sent


def test_bad_interval():
    sim = Simulator(seed=1)
    with pytest.raises(ValueError):
        PingTool(sim, _echo_probe(), interval=0.0)
