"""The §3.3 phone experiment: SNTP offsets on a 4G network.

Components:

* a phone-grade drifting clock (Samsung Galaxy S4 stand-in);
* :class:`GpsTimeSync` — the SmartTimeSync-app substitute that corrects
  the system clock from GPS fixes (small residual error per fix);
* an SNTP app polling ``0.pool.ntp.org`` across the
  :class:`~repro.cellular.ran.RadioAccessNetwork`.

The paper ran this for 3 hours with no monitor node or cross-traffic;
the RAN's promotion/scheduling delays alone produce the large, biased
SNTP offsets of Figure 5.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.cellular.ran import RadioAccessNetwork, RanParams
from repro.clock.oscillator import OSCILLATOR_GRADES, Oscillator
from repro.clock.simclock import SimClock
from repro.net.message import Datagram
from repro.ntp.pool import PoolDns
from repro.ntp.server import NtpServer, ServerConfig
from repro.ntp.sntp_client import SntpClient, SntpResult
from repro.simcore.simulator import Simulator
from repro.testbed.experiment import OffsetPoint, SeriesStats


@dataclass
class CellularOptions:
    """Experiment switches for the phone run.

    Attributes:
        duration: Virtual seconds (paper: 3 hours).
        cadence: Seconds between SNTP requests.  Long enough relative to
            the RRC inactivity timeout that most requests pay promotion.
        gps_fix_interval: Seconds between GPS clock corrections.
        gps_residual_sigma: Residual clock error after each fix (s).
        ran: RAN delay parameters.
        pool_size: Member servers behind the pool name.
    """

    duration: float = 3 * 3600.0
    cadence: float = 30.0
    gps_fix_interval: float = 60.0
    gps_residual_sigma: float = 0.005
    ran: RanParams = field(default_factory=RanParams)
    pool_size: int = 4


class GpsTimeSync:
    """SmartTimeSync substitute: periodic GPS-fix clock correction.

    Each fix steps the system clock to true time plus a small residual
    (GPS timestamp delivery error on commodity hardware).
    """

    def __init__(
        self,
        sim: Simulator,
        clock: SimClock,
        interval: float,
        residual_sigma: float,
    ) -> None:
        self._sim = sim
        self.clock = clock
        self.interval = interval
        self.residual_sigma = residual_sigma
        self._rng = sim.rng.stream("gps")
        self.fixes = 0
        self._running = False

    def start(self) -> None:
        """Begin periodic fixes."""
        self._running = True
        self._sim.call_after(0.0, self._fix, label="gps:fix")

    def stop(self) -> None:
        """Stop fixing."""
        self._running = False

    def _fix(self) -> None:
        if not self._running:
            return
        residual = float(self._rng.normal(0.0, self.residual_sigma))
        self.clock.step(-self.clock.true_offset() + residual)
        self.fixes += 1
        self._sim.call_after(self.interval, self._fix, label="gps:fix")


class CellularExperiment:
    """Build and run the Figure-5 experiment."""

    def __init__(self, seed: int = 0, options: CellularOptions = CellularOptions()) -> None:
        self.seed = seed
        self.options = options

    def run(self) -> "CellularResult":
        """Execute and return the SNTP offset series."""
        opts = self.options
        sim = Simulator(seed=self.seed)
        ran = RadioAccessNetwork(opts.ran, sim.rng.stream("ran"), lambda: sim.now)
        phone_clock = SimClock(
            oscillator=Oscillator(OSCILLATOR_GRADES["phone"], sim.rng.stream("phone-osc")),
            now_fn=lambda: sim.now,
        )
        gps = GpsTimeSync(
            sim, phone_clock, opts.gps_fix_interval, opts.gps_residual_sigma
        )

        # Pool servers sit behind the RAN + a short wired core path.
        servers: List[NtpServer] = []
        for i in range(opts.pool_size):
            name = f"0.pool.ntp.org#{i}"
            server_clock = SimClock(
                oscillator=Oscillator(
                    OSCILLATOR_GRADES["server"], sim.rng.stream(f"osc:{name}")
                ),
                now_fn=lambda: sim.now,
            )
            servers.append(NtpServer(sim, server_clock, ServerConfig(name=name)))
        dns = PoolDns(sim.rng.stream("dns"))
        dns.register("0.pool.ntp.org", servers)

        client = SntpClient(sim, phone_clock, send=lambda d: None, name="phone")

        def send(datagram: Datagram) -> None:
            server = dns.resolve(datagram.dst)
            delay, lost = ran.sample_uplink()
            if lost:
                return

            def arrive() -> None:
                server.on_datagram(datagram)

            sim.call_after(delay, arrive, label="ran:up")

        client._send = send  # bind after dns exists

        def reply(datagram: Datagram) -> None:
            delay, lost = ran.sample_downlink()
            if lost:
                return
            sim.call_after(
                delay, lambda: client.on_datagram(datagram), label="ran:down"
            )

        for server in servers:
            server.send_reply = reply

        result = CellularResult(duration=opts.duration)

        def poll() -> None:
            if sim.now >= opts.duration:
                return

            def on_result(res: SntpResult) -> None:
                if res.ok:
                    assert res.sample is not None
                    result.offsets.append(
                        OffsetPoint(sim.now, res.sample.offset, phone_clock.true_offset())
                    )
                else:
                    result.failures += 1

            client.query("0.pool.ntp.org", on_result, timeout=3.0)
            sim.call_after(opts.cadence, poll, label="phone:poll")

        gps.start()
        sim.call_after(0.0, poll, label="phone:poll")
        sim.run_until(opts.duration)
        gps.stop()
        result.promotions = ran.promotions
        result.gps_fixes = gps.fixes
        # Close spans of work still in flight at the horizon (open
        # exchanges, interference episodes) so the causal assembler sees
        # every tree the run started.
        sim.telemetry.spans.end_all()
        result.telemetry = sim.telemetry.snapshot()
        return result


@dataclass
class CellularResult:
    """Series and counters from one phone run.

    ``telemetry`` holds the run's frozen
    :meth:`repro.obs.telemetry.Telemetry.snapshot` (its trace records).
    """

    offsets: List[OffsetPoint] = field(default_factory=list)
    failures: int = 0
    promotions: int = 0
    gps_fixes: int = 0
    duration: float = 0.0
    telemetry: Optional[Dict[str, Any]] = None

    def stats(self) -> SeriesStats:
        """Summary of the reported SNTP offsets."""
        return SeriesStats.of(self.offsets)
