"""Testbed topology: WAP + target node + monitor node + pool servers.

Builds the full §3.2 environment in one object:

* four simulated NTP pools (``0/1/2/3.pool.ntp.org``) plus the TN's
  OS-default reference (``time.apple.com``), each pool holding several
  member servers with near-true clocks and wired-Internet paths;
* the TN's laptop-grade drifting clock, with separate SNTP "sockets"
  for the SNTP app, the MNTP app, and the optional ntpd daemon;
* in wireless mode, a :class:`~repro.wireless.channel.WirelessChannel`
  whose per-packet effects apply to *all* TN traffic in both
  directions, plus the MN's cross-traffic and control loop;
* in wired mode, no channel — hints are pinned favorable and packets
  see only the wired path models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.clock.discipline_api import ClockCorrector, SlewLimits
from repro.clock.oscillator import OSCILLATOR_GRADES, Oscillator
from repro.clock.simclock import SimClock
from repro.clock.temperature import ConstantTemperature, TemperatureProfile
from repro.faults.injectors import FaultInjector
from repro.faults.schedule import FaultSchedule
from repro.net.link import Link
from repro.net.message import Datagram
from repro.net.path import PathModel
from repro.ntp.discipline import ClockDiscipline
from repro.ntp.pool import PoolDns
from repro.ntp.server import NtpServer, ServerConfig, ServerPersona
from repro.ntp.sntp_client import HardeningPolicy, SntpClient
from repro.simcore.random import block_reader
from repro.simcore.simulator import Simulator
from repro.testbed.monitor import MonitorNode
from repro.testbed.pingtool import PingTool
from repro.wireless.channel import ChannelParams, WirelessChannel
from repro.wireless.crosstraffic import CrossTrafficGenerator
from repro.wireless.effects import ChannelEffects
from repro.wireless.hints import ALWAYS_FAVORABLE, StaticHintProvider
from repro.wireless.wap import AccessPoint


@dataclass
class TestbedOptions:
    """Experiment environment switches.

    (``__test__ = False`` tells pytest this is not a test class despite
    the name.)

    Attributes:
        wireless: Wireless last hop (False = wired ethernet).
        ntp_correction: Run ntpd on the TN to discipline its clock.
        monitor_active: Run the MN degradation loop (wireless only).
        pool_size: Member servers per pool hostname.
        include_falseticker: Make one member of each pool a falseticker
            (exercises MNTP's warm-up rejection).
        initial_clock_offset: TN clock offset at boot (seconds).
        temperature: Ambient profile for the TN oscillator.
        wired_base_delay: Mean one-way propagation to pool servers.
        fault_schedule: Optional fault episodes to inject (see
            :mod:`repro.faults`); None runs benign.
        mntp_hardening: Optional robustness policy for the MNTP app's
            SNTP client (backoff/failover/health); the baseline SNTP
            app always stays plain so chaos runs compare the two.
    """

    __test__ = False

    wireless: bool = True
    ntp_correction: bool = True
    monitor_active: bool = True
    pool_size: int = 4
    include_falseticker: bool = False
    initial_clock_offset: float = 0.0
    temperature: Optional[TemperatureProfile] = None
    wired_base_delay: float = 0.025
    fault_schedule: Optional[FaultSchedule] = None
    mntp_hardening: Optional[HardeningPolicy] = None


POOL_NAMES = ("0.pool.ntp.org", "1.pool.ntp.org", "2.pool.ntp.org", "3.pool.ntp.org")
OS_REFERENCE = "time.apple.com"
#: Node label SUSPEND episodes target; the TN is the only suspendable
#: node in this topology.
TN_NODE = "tn"


class Testbed:
    """Fully wired simulation environment for one experiment run."""

    __test__ = False  # not a pytest class, despite the name

    def __init__(self, sim: Simulator, options: TestbedOptions = TestbedOptions()) -> None:
        self.sim = sim
        self.options = options
        self.dns = PoolDns(sim.rng.stream("pooldns"))
        self._client_receivers: Dict[str, Callable[[Datagram], None]] = {}
        self._forward_links: Dict[str, Link] = {}
        # Fault injector, armed after the servers exist (below).
        self.injector: Optional[FaultInjector] = None
        if options.fault_schedule is not None:
            self.injector = FaultInjector(sim, options.fault_schedule)

        # -- wireless hop ----------------------------------------------------
        if options.wireless:
            self.channel: Optional[WirelessChannel] = WirelessChannel(
                params=ChannelParams(),
                rng=sim.rng.stream("channel"),
                now_fn=lambda: sim.now,
                telemetry=sim.telemetry,
            )
            self.cross_traffic: Optional[CrossTrafficGenerator] = CrossTrafficGenerator(sim)
            self.effects: Optional[ChannelEffects] = ChannelEffects(
                channel=self.channel,
                rng=sim.rng.stream("effects"),
                cross_traffic=self.cross_traffic,
            )
            self.wap: Optional[AccessPoint] = AccessPoint(self.channel)
            # Co-channel cross-traffic lifts the measured noise floor,
            # so the MNTP gate can see download bursts too.
            self.channel.occupancy_fn = self.cross_traffic.occupancy
            self.hints = self.channel
        else:
            self.channel = None
            self.cross_traffic = None
            self.effects = None
            self.wap = None
            self.hints = StaticHintProvider(ALWAYS_FAVORABLE)

        # -- servers ------------------------------------------------------------
        self.servers: Dict[str, NtpServer] = {}
        for pool in POOL_NAMES + (OS_REFERENCE,):
            members = [
                self._make_server(pool, i, options) for i in range(options.pool_size)
            ]
            self.dns.register(pool, members)
        if self.injector is not None:
            self.injector.install(self.servers)

        # -- target node -----------------------------------------------------------
        self.tn_clock = SimClock(
            oscillator=Oscillator(OSCILLATOR_GRADES["laptop"], sim.rng.stream("tn-osc")),
            now_fn=lambda: sim.now,
            temperature=options.temperature or ConstantTemperature(),
            initial_offset=options.initial_clock_offset,
        )
        self.sntp_app = self._make_client("tn-sntp")
        self.mntp_app = self._make_client("tn-mntp", hardening=options.mntp_hardening)
        if options.mntp_hardening is not None:
            self.mntp_app.set_failover_peers(list(POOL_NAMES))

        self.ntpd: Optional[ClockDiscipline] = None
        if options.ntp_correction:
            ntpd_client = self._make_client("tn-ntpd")
            corrector = ClockCorrector(self.tn_clock, SlewLimits())
            # ntpd polls four members of the OS reference pool directly
            # (fixed associations, as a real daemon config would).
            upstream = [s.config.name for s in self.dns.members(OS_REFERENCE)]
            self.ntpd = ClockDiscipline(sim, ntpd_client, corrector, upstream)

        # -- monitor node -------------------------------------------------------------
        self._ping_delay = block_reader(sim.rng.stream("ping-path").standard_exponential)
        self.ping = PingTool(sim, probe_fn=self._ping_probe)
        self.monitor: Optional[MonitorNode] = None
        if options.wireless and options.monitor_active:
            assert self.wap is not None and self.cross_traffic is not None
            self.monitor = MonitorNode(sim, self.wap, self.cross_traffic, self.ping)

    # -- construction helpers ---------------------------------------------------

    def _make_server(self, pool: str, index: int, options: TestbedOptions) -> NtpServer:
        sim = self.sim
        name = f"{pool}#{index}"
        stratum = 1 if index == 0 else 2
        persona = ServerPersona.TRUECHIMER
        falseticker_bias = 0.250
        if options.include_falseticker and index == options.pool_size - 1:
            persona = ServerPersona.FALSETICKER
            falseticker_bias = float(
                sim.rng.stream(f"bias:{name}").uniform(0.15, 0.45)
            )
        grade = OSCILLATOR_GRADES["reference" if stratum == 1 else "server"]
        clock = SimClock(
            oscillator=Oscillator(grade, sim.rng.stream(f"osc:{name}")),
            now_fn=lambda: sim.now,
            initial_offset=float(
                sim.rng.stream(f"init:{name}").normal(0.0, 0.0002 * stratum)
            ),
        )
        server = NtpServer(
            sim,
            clock,
            ServerConfig(
                name=name,
                stratum=stratum,
                persona=persona,
                falseticker_bias=falseticker_bias,
            ),
        )
        # Wired internet path to/from this server; the wireless hop's
        # effects are layered on via the link hooks when enabled.
        rng = sim.rng.stream(f"path:{name}")
        base = float(rng.uniform(0.6, 1.4)) * self.options.wired_base_delay
        asym = float(rng.uniform(0.9, 1.1))
        fwd_path = PathModel(rng, base_delay=base * asym, queue_mean=0.002,
                             loss_rate=0.001)
        rev_path = PathModel(rng, base_delay=base * (2.0 - asym), queue_mean=0.002,
                             loss_rate=0.001)
        hook = self.effects.as_hook() if self.effects else None
        fwd_hook, rev_hook = hook, hook
        if self.injector is not None:
            fwd_hook = self.injector.wrap_hook(hook, "up", name)
            rev_hook = self.injector.wrap_hook(hook, "down", name)
        fwd = Link(sim, fwd_path, receive=server.on_datagram, effect_hook=fwd_hook,
                   name=f"up:{name}")
        rev = Link(sim, rev_path, receive=self._deliver_to_client, effect_hook=rev_hook,
                   name=f"down:{name}")
        server.send_reply = rev.send
        self._forward_links[name] = fwd
        self.servers[name] = server
        return server

    def _make_client(
        self, name: str, hardening: Optional[HardeningPolicy] = None
    ) -> SntpClient:
        client = SntpClient(
            sim=self.sim,
            clock=self.tn_clock,
            send=self._send_from_tn,
            name=name,
            hardening=hardening,
        )
        self._client_receivers[name] = client.on_datagram
        return client

    # -- datagram routing ------------------------------------------------------------

    def _tn_suspended(self) -> bool:
        """Whether a suspend fault currently freezes the target node.

        The device-suspend fault is modelled as the radio being off:
        while active, all TN traffic in both directions is dropped at
        the node boundary (approximating the frozen event sources of a
        truly suspended device).
        """
        return self.injector is not None and self.injector.node_suspended(TN_NODE)

    def _send_from_tn(self, datagram: Datagram) -> None:
        if self._tn_suspended():
            datagram.dropped = True
            assert self.injector is not None
            self.injector.record_suspend_drop(
                TN_NODE, datagram.trace_id, datagram.ident
            )
            return
        server = self.dns.resolve(datagram.dst)
        datagram.dst = server.config.name
        self._forward_links[server.config.name].send(datagram)

    def _deliver_to_client(self, datagram: Datagram) -> None:
        if self._tn_suspended():
            datagram.dropped = True
            assert self.injector is not None
            self.injector.record_suspend_drop(
                TN_NODE, datagram.trace_id, datagram.ident
            )
            return
        receiver = self._client_receivers.get(datagram.dst)
        if receiver is not None:
            receiver(datagram)

    # -- ping -------------------------------------------------------------------------

    def _ping_probe(self, on_result: Callable[[Optional[float]], None]) -> None:
        """One ICMP-like probe to the probe destination across the same
        wireless + wired hops as the NTP traffic."""
        base_rtt = 2 * self.options.wired_base_delay
        rtt = base_rtt + 0.004 * self._ping_delay()
        if self.effects is not None:
            out = self.effects.sample()
            back = self.effects.sample()
            if out.lost or back.lost:
                self.sim.call_after(1.0, lambda: on_result(None), label="ping:lost")
                return
            rtt += out.extra_delay + back.extra_delay
        self.sim.call_after(rtt, lambda: on_result(rtt), label="ping:echo")

    # -- lifecycle ----------------------------------------------------------------------

    def start_background(self) -> None:
        """Start ntpd (if configured) and the MN loop (if configured)."""
        if self.ntpd is not None:
            self.ntpd.start()
        if self.monitor is not None:
            self.monitor.start()
        elif self.options.wireless and self.cross_traffic is not None:
            # Without the MN loop, cross-traffic still runs open-loop so
            # the channel is not artificially clean.
            self.cross_traffic.start()
            self.ping.start()

    def stop_background(self) -> None:
        """Stop all background daemons."""
        if self.ntpd is not None:
            self.ntpd.stop()
        if self.monitor is not None:
            self.monitor.stop()
        elif self.cross_traffic is not None:
            self.cross_traffic.stop()
            self.ping.stop()
