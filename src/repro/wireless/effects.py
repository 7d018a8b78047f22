"""Channel state -> per-packet (loss, extra delay) mapping.

This is the physical coupling that makes the paper's story work: when
the SNR margin is poor and/or the channel is occupied by cross-traffic,
802.11 stations see retransmissions, rate fallback and queueing — i.e.
*extra one-way delay* and *loss* exactly when the hints look bad.  SNTP
ignores the hints and samples through these episodes; MNTP defers.

The mapping:

* loss probability rises logistically as SNR margin falls through
  ``snr_loss_midpoint_db``, and linearly with occupancy;
* extra delay = contention term (grows with occupancy, heavy-tailed)
  + retransmission term (grows as SNR degrades, since each retry costs
  a backoff);
* a small floor of delay jitter is always present (medium access).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.net.link import LinkEffect
from repro.wireless.channel import WirelessChannel
from repro.wireless.crosstraffic import CrossTrafficGenerator
from repro.wireless.hints import WirelessHints


@dataclass(frozen=True)
class EffectsParams:
    """Tunables for the channel-to-packet-fate mapping.

    Attributes:
        snr_loss_midpoint_db: SNR margin at which loss reaches half of
            ``max_snr_loss``.
        snr_loss_steepness: Logistic steepness (per dB).
        max_snr_loss: Loss probability ceiling from poor SNR alone.
        occupancy_loss_gain: Extra loss per unit occupancy.
        base_jitter_s: Always-present medium-access jitter scale.
        contention_delay_s: Scale of queueing delay at full occupancy.
        retry_delay_s: Per-retry backoff cost.
        max_retries: 802.11 retry limit before the frame is dropped.
    """

    snr_loss_midpoint_db: float = 12.0
    snr_loss_steepness: float = 0.45
    max_snr_loss: float = 0.85
    occupancy_loss_gain: float = 0.10
    base_jitter_s: float = 0.0015
    contention_delay_s: float = 0.080
    retry_delay_s: float = 0.018
    max_retries: int = 7

    def __post_init__(self) -> None:
        # Scales of the standard-form draws in ``ChannelEffects.sample``.
        for name in ("base_jitter_s", "contention_delay_s"):
            value = getattr(self, name)
            if not value >= 0.0:
                raise ValueError(f"{name} must be non-negative, got {value!r}")


class ChannelEffects:
    """Samples a :class:`LinkEffect` for each packet crossing the hop.

    Args:
        channel: The wireless channel whose hints drive the mapping.
        rng: Random stream for per-packet draws.
        cross_traffic: Optional occupancy source.
        params: Mapping tunables.
    """

    def __init__(
        self,
        channel: WirelessChannel,
        rng: np.random.Generator,
        cross_traffic: Optional[CrossTrafficGenerator] = None,
        params: EffectsParams = EffectsParams(),
    ) -> None:
        self.channel = channel
        self._rng = rng
        self.cross_traffic = cross_traffic
        self.params = params
        # The last per-attempt error probability, valid while the hints
        # object it came from and the occupancy are the same.  The
        # channel hands out one hints object per tick and (tx power,
        # occupancy), so packets within a tick reuse it.
        self._err_hints: Optional[WirelessHints] = None
        self._err_occupancy = 0.0
        self._err = 0.0

    def _per_attempt_error_prob(self, snr_margin_db: float, occupancy: float) -> float:
        p = self.params
        logistic = 1.0 / (
            1.0 + math.exp(p.snr_loss_steepness * (snr_margin_db - p.snr_loss_midpoint_db))
        )
        prob = p.max_snr_loss * logistic + p.occupancy_loss_gain * occupancy
        return min(0.98, max(0.0, prob))

    def sample(self) -> LinkEffect:
        """Draw the fate of one packet under current channel conditions.

        The draws are numpy's ``exponential(s)`` and ``uniform(0.7, 1.5)``
        in their standard forms (see DESIGN.md): the same floats from the
        same stream, without the per-call parameter checks.  The error
        probability is recomputed only when the hints object or the
        occupancy changes; the same inputs give the same float.
        """
        p = self.params
        rng = self._rng
        random = rng.random
        hints = self.channel.read_hints()
        occupancy = self.cross_traffic.occupancy() if self.cross_traffic else 0.0
        if hints is self._err_hints and occupancy == self._err_occupancy:
            err = self._err
        else:
            err = self._per_attempt_error_prob(hints.snr_margin_db, occupancy)
            self._err_hints = hints
            self._err_occupancy = occupancy
            self._err = err

        # 802.11 link-layer retransmission loop: each failed attempt adds
        # a backoff; exceeding the retry limit loses the frame.
        retries = 0
        while retries <= p.max_retries and random() < err:
            retries += 1
        if retries > p.max_retries:
            return LinkEffect(0.0, True)

        delay = p.base_jitter_s * rng.standard_exponential()
        retry_delay = retries * p.retry_delay_s * (0.7 + (1.5 - 0.7) * random())
        delay += retry_delay
        if occupancy > 0:
            # Queueing behind cross-traffic: heavy-tailed in occupancy.
            mean_q = p.contention_delay_s * (occupancy ** 2) / max(0.05, 1.0 - occupancy)
            delay += mean_q * rng.standard_exponential() if mean_q > 0 else 0.0
        return LinkEffect(delay, False, retry_delay)

    def as_hook(self) -> Callable[[], LinkEffect]:
        """Adapter for :class:`repro.net.link.Link`'s ``effect_hook``."""
        return self.sample
