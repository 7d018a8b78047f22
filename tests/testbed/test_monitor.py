"""MonitorNode feedback loop."""

import numpy as np

from repro.simcore.simulator import Simulator
from repro.testbed.monitor import MonitorNode, MonitorParams
from repro.testbed.pingtool import PingTool
from repro.wireless.channel import ChannelParams, WirelessChannel
from repro.wireless.crosstraffic import CrossTrafficGenerator
from repro.wireless.wap import AccessPoint


def _setup(sim, probe):
    ch = WirelessChannel(ChannelParams(), sim.rng.stream("ch"), now_fn=lambda: sim.now)
    wap = AccessPoint(ch)
    xt = CrossTrafficGenerator(sim)
    ping = PingTool(sim, probe, interval=1.0)
    mn = MonitorNode(sim, wap, xt, ping, MonitorParams(control_interval=10.0))
    return ch, wap, xt, ping, mn


def test_stable_channel_gets_degraded():
    sim = Simulator(seed=1)
    # Perfect pings: channel looks stable -> MN escalates hostility.
    ch, wap, xt, ping, mn = _setup(sim, lambda cb: cb(0.02))
    start_power = wap.tx_power_dbm
    mn.start()
    sim.run_until(120.0)
    assert mn.escalations > 0
    assert wap.tx_power_dbm < start_power
    assert xt.frequency_scale > 1.0


def test_degraded_channel_gets_relief():
    sim = Simulator(seed=1)
    # All pings lost: MN must back off.
    ch, wap, xt, ping, mn = _setup(sim, lambda cb: cb(None))
    xt.set_frequency_scale(4.0)
    wap.set_tx_power(-30.0)
    mn.start()
    sim.run_until(120.0)
    assert mn.backoffs > 0
    assert wap.tx_power_dbm > -30.0
    assert xt.frequency_scale < 4.0


def test_control_decisions_traced():
    sim = Simulator(seed=1)
    ch, wap, xt, ping, mn = _setup(sim, lambda cb: cb(0.02))
    mn.start()
    sim.run_until(100.0)
    controls = sim.trace.select(component="monitor", kind="control")
    assert len(controls) == mn.backoffs + mn.escalations
    assert all("tx_power" in c.data for c in controls)


def test_stop_halts_control():
    sim = Simulator(seed=1)
    ch, wap, xt, ping, mn = _setup(sim, lambda cb: cb(0.02))
    mn.start()
    sim.run_until(50.0)
    mn.stop()
    count = mn.escalations + mn.backoffs
    sim.run_until(500.0)
    assert mn.escalations + mn.backoffs == count


def test_oscillation_between_regimes():
    """With pings that reflect hostility, the loop alternates."""
    sim = Simulator(seed=1)
    state = {"mn": None}

    def reactive_probe(cb):
        mn = state["mn"]
        hostile = mn is not None and mn.cross_traffic.frequency_scale > 1.5
        cb(None if hostile and sim.rng.stream("p").random() < 0.5 else 0.02)

    ch, wap, xt, ping, mn = _setup(sim, reactive_probe)
    state["mn"] = mn
    mn.start()
    sim.run_until(1200.0)
    assert mn.escalations > 0
    assert mn.backoffs > 0
