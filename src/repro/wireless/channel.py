"""The wireless channel state process.

State is advanced lazily on a fixed tick (default 1 s of virtual time):

* **RSSI** = tx power - path loss + shadowing + fading - interference dip

  - shadowing: Ornstein-Uhlenbeck (slow, correlated over ~minutes),
  - fading: AR(1) (fast, correlated over ~seconds),
  - interference episodes: Poisson arrivals with exponential holding
    times; while active they depress RSSI and raise the noise floor —
    the mechanism behind the paper's "highly-varying and lossy channel
    condition" windows.

* **Noise floor** = quiet floor + interference lift + small AR(1) jitter.

The monitor node manipulates ``tx_power_dbm`` (via the access point)
and the interference intensity (via cross-traffic), reproducing the
paper's scriptable degradation tool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.obs.spans import Span
from repro.obs.telemetry import Telemetry
from repro.wireless.hints import WirelessHints


@dataclass(frozen=True)
class ChannelParams:
    """Tunable parameters of the channel process.

    Attributes:
        path_loss_db: Static path loss between WAP and client.
        shadow_sigma_db: Stationary std-dev of the shadowing OU process.
        shadow_tau_s: Shadowing correlation time constant.
        fading_sigma_db: Stationary std-dev of the fast fading AR(1).
        fading_rho: AR(1) coefficient per tick for fading.
        quiet_noise_dbm: Noise floor with no interference.
        noise_jitter_db: Small AR(1) jitter on the noise floor.
        interference_rate_hz: Poisson arrival rate of interference episodes.
        interference_mean_duration_s: Mean episode length.
        interference_rssi_dip_db: Mean RSSI depression while active.
        interference_noise_lift_db: Mean noise lift while active.
        occupancy_noise_gain_db: Noise-floor lift per unit channel
            occupancy (co-channel traffic raises the measured noise /
            CCA level on real adaptors); applied when an occupancy
            source is attached.
        tick_s: State-advance granularity.
    """

    path_loss_db: float = 45.0
    shadow_sigma_db: float = 3.0
    shadow_tau_s: float = 120.0
    fading_sigma_db: float = 2.5
    fading_rho: float = 0.7
    quiet_noise_dbm: float = -92.0
    noise_jitter_db: float = 1.0
    interference_rate_hz: float = 1.0 / 180.0
    interference_mean_duration_s: float = 45.0
    interference_rssi_dip_db: float = 12.0
    interference_noise_lift_db: float = 18.0
    occupancy_noise_gain_db: float = 15.0
    tick_s: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.tick_s) and self.tick_s > 0):
            raise ValueError(f"tick_s must be positive and finite, got {self.tick_s!r}")
        if not self.shadow_tau_s > 0:
            raise ValueError(f"shadow_tau_s must be positive, got {self.shadow_tau_s!r}")
        if not 0.0 <= self.fading_rho < 1.0:
            raise ValueError(f"fading_rho must be in [0, 1), got {self.fading_rho!r}")
        # Scales of the standard-form draws in ``_step_once``.
        for name in ("shadow_sigma_db", "fading_sigma_db", "noise_jitter_db",
                     "interference_mean_duration_s"):
            value = getattr(self, name)
            if not value >= 0.0:
                raise ValueError(f"{name} must be non-negative, got {value!r}")


class WirelessChannel:
    """Lazily-advanced wireless channel state.

    Args:
        params: Channel process parameters.
        rng: Random stream dedicated to this channel.
        now_fn: Callable returning current virtual time.
        tx_power_dbm: Initial transmit power (adjustable at runtime by
            the access point / monitor node).
        telemetry: Optional telemetry bundle; when given, interference
            episodes are traced as ``channel.interference`` spans and
            counted (the paper's "lossy windows" become queryable).
    """

    def __init__(
        self,
        params: ChannelParams,
        rng: np.random.Generator,
        now_fn,
        tx_power_dbm: float = -10.0,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.params = params
        self._rng = rng
        self._now_fn = now_fn
        self.tx_power_dbm = float(tx_power_dbm)
        self._next_tick = float(now_fn()) + params.tick_s
        # Per-tick OU/AR(1) coefficients: every step spans one tick.
        alpha = math.exp(-params.tick_s / params.shadow_tau_s)
        rho = params.fading_rho
        self._shadow_alpha = alpha
        self._shadow_shock_sigma = params.shadow_sigma_db * math.sqrt(
            max(0.0, 1.0 - alpha * alpha)
        )
        self._fade_sigma = params.fading_sigma_db * math.sqrt(max(0.0, 1.0 - rho * rho))
        self._noise_jitter_sigma = params.noise_jitter_db * math.sqrt(
            max(0.0, 1.0 - rho * rho)
        )
        self._shadow_db = 0.0
        self._fading_db = 0.0
        self._noise_jitter_db = 0.0
        # Interference episode state: remaining seconds and strengths.
        self._intf_remaining_s = 0.0
        self._intf_rssi_dip_db = 0.0
        self._intf_noise_lift_db = 0.0
        #: Extra interference pressure in [0, inf): scales episode rate.
        #: The monitor node raises this while cross-traffic is active.
        self.interference_pressure = 1.0
        #: Optional callable returning current channel occupancy [0, 1];
        #: attached by the topology so co-channel traffic lifts the
        #: measured noise floor.
        self.occupancy_fn = None
        # The last hints read, valid until the next tick while
        # (tx power, occupancy) is unchanged.
        self._hints: Optional[WirelessHints] = None
        self._hints_tx_power_dbm = 0.0
        self._hints_occupancy: Optional[float] = None
        self._telemetry = telemetry
        self._intf_span: Optional[Span] = None
        self._episodes_total = (
            telemetry.metrics.counter(
                "channel_interference_episodes_total",
                "interference episodes started on the wireless channel",
            )
            if telemetry is not None
            else None
        )

    # -- state advancement -------------------------------------------------

    def _advance(self) -> None:
        now = float(self._now_fn())
        while self._next_tick <= now:
            self._step_once(self.params.tick_s, self._next_tick)
            self._next_tick += self.params.tick_s

    def _step_once(self, dt: float, t: float) -> None:
        """Advance the state by one tick (``dt`` is ``params.tick_s``)."""
        self._hints = None
        rng = self._rng
        normal = rng.standard_normal
        # Shadowing: exact OU discretisation.
        self._shadow_db = (
            self._shadow_alpha * self._shadow_db + self._shadow_shock_sigma * normal()
        )
        # Fast fading AR(1).
        rho = self.params.fading_rho
        self._fading_db = rho * self._fading_db + self._fade_sigma * normal()
        # Noise jitter AR(1) with the same rho as fading.
        self._noise_jitter_db = (
            rho * self._noise_jitter_db + self._noise_jitter_sigma * normal()
        )
        # Interference episodes.
        if self._intf_remaining_s > 0:
            self._intf_remaining_s = max(0.0, self._intf_remaining_s - dt)
            if self._intf_remaining_s <= 0.0:
                self._intf_rssi_dip_db = 0.0
                self._intf_noise_lift_db = 0.0
                if self._intf_span is not None:
                    self._intf_span.end(t=t)
                    self._intf_span = None
        else:
            p = self.params
            rate = p.interference_rate_hz * max(0.0, self.interference_pressure)
            if rate > 0 and rng.random() < 1.0 - math.exp(-rate * dt):
                self._intf_remaining_s = (
                    p.interference_mean_duration_s * rng.standard_exponential()
                )
                self._intf_rssi_dip_db = p.interference_rssi_dip_db + 3.0 * normal()
                self._intf_noise_lift_db = p.interference_noise_lift_db + 4.0 * normal()
                if self._telemetry is not None:
                    self._episodes_total.inc()
                    self._intf_span = self._telemetry.spans.begin(
                        "channel.interference",
                        t=t,
                        rssi_dip_db=round(self._intf_rssi_dip_db, 3),
                        noise_lift_db=round(self._intf_noise_lift_db, 3),
                    )

    # -- reads --------------------------------------------------------------

    def read_hints(self) -> WirelessHints:
        """Current (RSSI, noise) as the adaptor would report them."""
        if self._next_tick <= self._now_fn():
            self._advance()
        occupancy = self.occupancy_fn() if self.occupancy_fn is not None else None
        hints = self._hints
        if (
            hints is not None
            and self._hints_tx_power_dbm == self.tx_power_dbm
            and self._hints_occupancy == occupancy
        ):
            return hints
        p = self.params
        rssi = (
            self.tx_power_dbm
            - p.path_loss_db
            + self._shadow_db
            + self._fading_db
            - max(0.0, self._intf_rssi_dip_db)
        )
        noise = p.quiet_noise_dbm + self._noise_jitter_db + max(
            0.0, self._intf_noise_lift_db
        )
        if occupancy is not None:
            noise += p.occupancy_noise_gain_db * max(0.0, min(1.0, occupancy))
        hints = WirelessHints(rssi_dbm=rssi, noise_dbm=noise)
        self._hints = hints
        self._hints_tx_power_dbm = self.tx_power_dbm
        self._hints_occupancy = occupancy
        return hints

    def interference_active(self) -> bool:
        """Whether an interference episode is in progress."""
        self._advance()
        return self._intf_remaining_s > 0

    # -- control (used by the WAP / monitor node) ----------------------------

    def set_tx_power(self, dbm: float) -> None:
        """Change the transmit power (legal-range clamped to [-30, 0] dBm
        relative scale used in the testbed)."""
        self.tx_power_dbm = float(min(0.0, max(-30.0, dbm)))

    def set_interference_pressure(self, pressure: float) -> None:
        """Scale the interference episode arrival rate (>= 0)."""
        self.interference_pressure = max(0.0, float(pressure))
