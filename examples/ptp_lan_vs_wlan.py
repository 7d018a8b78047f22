#!/usr/bin/env python3
"""PTP (IEEE 1588) on a clean LAN vs the paper's degraded wireless hop.

§2 names PTP as the high-precision protocol variant.  This example runs
a two-step PTP master/slave pair over both hop types and shows why it
is not the answer for mobile devices: hardware timestamping removes
endpoint jitter but not path asymmetry, so the bursty wireless hop
pushes PTP into the same error class as SNTP.

Usage::

    python examples/ptp_lan_vs_wlan.py [seed]
"""

import sys

import numpy as np

from repro.net.link import Link
from repro.net.path import PathModel
from repro.ptp.protocol import PtpMaster, PtpSlave
from repro.reporting.series import render_series
from repro.simcore.simulator import Simulator
from repro.wireless.channel import ChannelParams, WirelessChannel
from repro.wireless.crosstraffic import CrossTrafficGenerator
from repro.clock.oscillator import Oscillator, OscillatorGrade
from repro.clock.simclock import SimClock
from repro.wireless.effects import ChannelEffects

_PERFECT = OscillatorGrade(
    name="perfect", base_skew_ppm_sigma=0.0, wander_ppm_per_sqrt_s=0.0,
    temp_coeff_ppm_per_k=0.0,
)


def perfect_clock(sim, stream):
    """A drift-free clock bound to the simulator."""
    return SimClock(Oscillator(_PERFECT, sim.rng.stream(stream)),
                    now_fn=lambda: sim.now)


def run_hop(seed: int, wireless: bool, duration: float = 900.0):
    """One PTP session over the chosen hop; returns |offset errors|."""
    sim = Simulator(seed=seed)
    if wireless:
        channel = WirelessChannel(ChannelParams(), sim.rng.stream("ch"),
                                  now_fn=lambda: sim.now)
        cross_traffic = CrossTrafficGenerator(sim)
        cross_traffic.start()
        effects = ChannelEffects(channel, sim.rng.stream("fx"),
                                 cross_traffic=cross_traffic)
        hook = effects.as_hook()
    else:
        hook = None

    master_clock = perfect_clock(sim, stream="m")
    slave_clock = perfect_clock(sim, stream="s")
    slave = PtpSlave(sim, slave_clock, send=lambda d: None)
    master = PtpMaster(sim, master_clock, send=lambda d: None, sync_interval=1.0)
    down = Link(sim, PathModel(sim.rng.stream("d"), base_delay=0.002,
                               queue_mean=0.0005), receive=slave.on_datagram,
                effect_hook=hook)
    up = Link(sim, PathModel(sim.rng.stream("u"), base_delay=0.002,
                             queue_mean=0.0005), receive=master.on_datagram,
              effect_hook=hook)
    master._send = down.send
    slave._send = up.send
    master.start()
    sim.run_until(duration)
    return np.abs([s.offset for s in slave.samples])


def main() -> None:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 3
    print("Running 15 simulated minutes of PTP per hop type...")
    lan = run_hop(seed, wireless=False)
    wlan = run_hop(seed, wireless=True)
    print()
    print(f"LAN : {len(lan)} exchanges, mean |err| {lan.mean() * 1e6:8.1f} us, "
          f"max {lan.max() * 1e6:8.1f} us")
    print(f"WLAN: {len(wlan)} exchanges, mean |err| {wlan.mean() * 1e3:8.2f} ms, "
          f"max {wlan.max() * 1e3:8.2f} ms")
    print()
    print(render_series(list(lan), label="LAN |err| "))
    print(render_series(list(wlan), label="WLAN |err|"))
    print()
    print(f"Degradation factor: {wlan.mean() / lan.mean():.0f}x — "
          "the asymmetric wireless hop erases PTP's precision, which is "
          "why MNTP gates on channel state instead.")


if __name__ == "__main__":
    main()
