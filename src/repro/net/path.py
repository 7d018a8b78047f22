"""One-way path delay/loss model.

A :class:`PathModel` produces per-packet one-way delays composed of a
fixed propagation base, a queueing term (Gamma-distributed, the common
empirical fit for access-network queueing), and occasional heavy-tail
spikes (bufferbloat episodes).  Loss is Bernoulli per packet.  The two
directions of a path are modelled by two independent ``PathModel``
instances so asymmetry — a first-order concern for NTP offset error —
falls out naturally.
"""

from __future__ import annotations

import math

import numpy as np


class DelaySample:
    """Result of sampling the path for one packet.

    Attributes:
        delay: One-way delay in seconds (meaningless if ``lost``).
        lost: Whether the packet was dropped.
        base: Propagation floor component of ``delay``.
        queue: Gamma queueing component of ``delay``.
        spike: Bufferbloat spike component of ``delay``.

    The three components sum to ``delay``; they feed the per-hop delay
    breakdown the causal tracer records (:mod:`repro.obs.causal`).
    """

    __slots__ = ("delay", "lost", "base", "queue", "spike")

    def __init__(
        self,
        delay: float,
        lost: bool,
        base: float = 0.0,
        queue: float = 0.0,
        spike: float = 0.0,
    ) -> None:
        self.delay = delay
        self.lost = lost
        self.base = base
        self.queue = queue
        self.spike = spike


class PathModel:
    """Stochastic one-way delay and loss generator.

    Args:
        rng: Random stream for this path direction.
        base_delay: Fixed propagation+transmission floor (seconds).
        queue_mean: Mean of the Gamma queueing term (seconds).
        queue_shape: Gamma shape; small values give burstier queueing.
        loss_rate: Bernoulli packet loss probability.
        spike_rate: Probability a packet hits a bufferbloat episode.
        spike_scale: Exponential scale of the spike magnitude (seconds).
    """

    def __init__(
        self,
        rng: np.random.Generator,
        base_delay: float = 0.020,
        queue_mean: float = 0.003,
        queue_shape: float = 1.2,
        loss_rate: float = 0.0,
        spike_rate: float = 0.0,
        spike_scale: float = 0.100,
    ) -> None:
        # The delay terms are drawn in standard form (``scale *
        # standard_gamma(shape)``, ``scale * standard_exponential()``),
        # which skips numpy's parameter checks, so they are made here.
        for name, value in (("base_delay", base_delay), ("queue_mean", queue_mean),
                            ("spike_scale", spike_scale)):
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be non-negative and finite, got {value!r}")
        if not (math.isfinite(queue_shape) and queue_shape > 0):
            raise ValueError(f"queue_shape must be positive and finite, got {queue_shape!r}")
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss rate must be in [0, 1)")
        if not 0.0 <= spike_rate < 1.0:
            raise ValueError("spike rate must be in [0, 1)")
        self._rng = rng
        self.base_delay = float(base_delay)
        self.queue_mean = float(queue_mean)
        self.queue_shape = float(queue_shape)
        self.loss_rate = float(loss_rate)
        self.spike_rate = float(spike_rate)
        self.spike_scale = float(spike_scale)

    def sample(self) -> DelaySample:
        """Draw the fate of one packet on this path direction.

        The draws are numpy's ``gamma(k, s)`` and ``exponential(s)`` in
        their standard forms (see DESIGN.md): the same floats from the
        same stream, without the per-call parameter checks.
        """
        rng = self._rng
        if self.loss_rate > 0 and rng.random() < self.loss_rate:
            return DelaySample(math.inf, True)
        queue = 0.0
        spike = 0.0
        if self.queue_mean > 0:
            shape = self.queue_shape
            queue = (self.queue_mean / shape) * rng.standard_gamma(shape)
        if self.spike_rate > 0 and rng.random() < self.spike_rate:
            spike = self.spike_scale * rng.standard_exponential()
        base = self.base_delay
        return DelaySample(base + queue + spike, False, base, queue, spike)

    def min_delay(self) -> float:
        """The propagation floor — what min-OWD filtering converges to."""
        return self.base_delay
