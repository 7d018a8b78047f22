"""Mini-topology helpers for protocol-level tests."""

from __future__ import annotations

from typing import List, Optional

from repro.clock.oscillator import OSCILLATOR_GRADES, Oscillator, OscillatorGrade
from repro.clock.simclock import SimClock
from repro.net.link import Link
from repro.net.path import PathModel
from repro.ntp.server import NtpServer, ServerConfig
from repro.ntp.sntp_client import HardeningPolicy, SntpClient
from repro.simcore.simulator import Simulator

PERFECT = OscillatorGrade(
    name="perfect", base_skew_ppm_sigma=0.0, wander_ppm_per_sqrt_s=0.0,
    temp_coeff_ppm_per_k=0.0,
)


def perfect_clock(sim: Simulator, offset: float = 0.0, stream: str = "clk") -> SimClock:
    """A drift-free clock with a fixed initial offset."""
    return SimClock(
        Oscillator(PERFECT, sim.rng.stream(stream)),
        now_fn=lambda: sim.now,
        initial_offset=offset,
    )


def drifting_clock(sim: Simulator, skew_ppm: float, offset: float = 0.0,
                   stream: str = "clk") -> SimClock:
    """A clock with an exact constant skew and no wander."""
    osc = Oscillator(PERFECT, sim.rng.stream(stream))
    osc.base_skew_ppm = skew_ppm
    return SimClock(osc, now_fn=lambda: sim.now, initial_offset=offset)


class MiniNet:
    """One client wired to N servers over symmetric loss-free paths."""

    def __init__(
        self,
        sim: Simulator,
        server_configs: List[ServerConfig],
        client_clock: Optional[SimClock] = None,
        owd: float = 0.025,
        server_offsets: Optional[List[float]] = None,
        hardening: Optional[HardeningPolicy] = None,
    ) -> None:
        self.sim = sim
        self.client_clock = client_clock or perfect_clock(sim, stream="client-clk")
        self.servers: dict[str, NtpServer] = {}
        self._uplinks: dict[str, Link] = {}
        self.client = SntpClient(
            sim, self.client_clock, send=self._send, name="client",
            hardening=hardening,
        )
        offsets = server_offsets or [0.0] * len(server_configs)
        for config, s_offset in zip(server_configs, offsets):
            clock = perfect_clock(sim, offset=s_offset, stream=f"srv:{config.name}")
            server = NtpServer(sim, clock, config)
            up = Link(
                sim,
                PathModel(sim.rng.stream(f"up:{config.name}"), base_delay=owd,
                          queue_mean=0.0, loss_rate=0.0),
                receive=server.on_datagram,
            )
            down = Link(
                sim,
                PathModel(sim.rng.stream(f"dn:{config.name}"), base_delay=owd,
                          queue_mean=0.0, loss_rate=0.0),
                receive=self.client.on_datagram,
            )
            server.send_reply = down.send
            self.servers[config.name] = server
            self._uplinks[config.name] = up

    def _send(self, datagram) -> None:
        self._uplinks[datagram.dst].send(datagram)
