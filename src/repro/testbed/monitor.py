"""The monitor node's channel-degradation feedback loop.

From the paper (§3.2): the MN occupies the WAP's uplink with file
downloads and sends tx-power commands to the WAP.  The loop closes on
ping statistics reported by the TN:

* probes degrading (losses / rising latency) → decrease download
  frequency and increase tx power (back off, let the channel recover);
* channel stable (no losses) → decrease tx power and increase download
  frequency, "making the channel conditions variable and lossy at
  random intervals".

The result is an oscillation between hostile and benign episodes — the
operating regime all wireless experiments run in.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.simcore.simulator import Simulator
from repro.testbed.pingtool import PingTool
from repro.wireless.crosstraffic import CrossTrafficGenerator
from repro.wireless.wap import AccessPoint


@dataclass
class MonitorParams:
    """Feedback-loop tunables.

    Attributes:
        control_interval: Seconds between control decisions.
        loss_backoff_threshold: Loss fraction above which the MN backs off.
        rtt_backoff_threshold: Mean RTT above which the MN backs off.
        freq_step: Multiplicative change applied to download frequency.
        min_freq_scale / max_freq_scale: Clamp on download frequency.
        pressure_benign / pressure_hostile: Interference pressure applied
            in the two regimes.
    """

    control_interval: float = 20.0
    loss_backoff_threshold: float = 0.15
    rtt_backoff_threshold: float = 0.200
    freq_step: float = 1.4
    min_freq_scale: float = 0.2
    max_freq_scale: float = 6.0
    pressure_benign: float = 0.6
    pressure_hostile: float = 3.0


class MonitorNode:
    """Closed-loop channel degradation controller.

    Args:
        sim: Simulation kernel.
        wap: Access point accepting tx-power commands.
        cross_traffic: Download generator under MN control.
        ping: TN-side probe statistics source.
        params: Loop tunables.
    """

    def __init__(
        self,
        sim: Simulator,
        wap: AccessPoint,
        cross_traffic: CrossTrafficGenerator,
        ping: PingTool,
        params: MonitorParams = MonitorParams(),
    ) -> None:
        self._sim = sim
        self.wap = wap
        self.cross_traffic = cross_traffic
        self.ping = ping
        self.params = params
        self._running = False
        self.backoffs = 0
        self.escalations = 0

    def start(self) -> None:
        """Begin cross-traffic and the control loop."""
        self._running = True
        self.cross_traffic.start()
        self.ping.start()
        self._sim.call_after(
            self.params.control_interval, self._control, label="mn:control"
        )

    def stop(self) -> None:
        """Halt the loop and cross-traffic."""
        self._running = False
        self.cross_traffic.stop()
        self.ping.stop()

    def _control(self) -> None:
        if not self._running:
            return
        stats = self.ping.stats()
        p = self.params
        degraded = (
            stats.loss_fraction > p.loss_backoff_threshold
            or stats.mean_rtt > p.rtt_backoff_threshold
        )
        if degraded:
            # Channel suffering: ease off so it can recover.
            self.backoffs += 1
            self.cross_traffic.set_frequency_scale(
                max(p.min_freq_scale, self.cross_traffic.frequency_scale / p.freq_step)
            )
            self.wap.increase_tx_power()
            self.wap.channel.set_interference_pressure(p.pressure_benign)
        else:
            # Channel stable: make it hostile again.
            self.escalations += 1
            self.cross_traffic.set_frequency_scale(
                min(p.max_freq_scale, self.cross_traffic.frequency_scale * p.freq_step)
            )
            self.wap.decrease_tx_power()
            self.wap.channel.set_interference_pressure(p.pressure_hostile)
        self._sim.telemetry.emit(
            self._sim.now,
            "monitor",
            "control",
            degraded=degraded,
            loss=stats.loss_fraction,
            mean_rtt=stats.mean_rtt,
            tx_power=self.wap.tx_power_dbm,
            freq_scale=self.cross_traffic.frequency_scale,
        )
        self._sim.call_after(
            self.params.control_interval, self._control, label="mn:control"
        )
