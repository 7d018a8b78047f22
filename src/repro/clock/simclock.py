"""The simulated system clock.

A :class:`SimClock` tracks local time as a function of true (virtual)
time using the standard two-state model:

    local(t) = t + offset(t)
    d offset / dt = skew(t)

where skew is the oscillator's total fractional frequency error
(constant part + random-walk wander + temperature term) plus any
discipline-applied frequency adjustment.  State is advanced lazily: any
read first integrates the model forward from the last update.

Corrections supported:

* ``step(delta)`` — instantaneous phase jump (what SNTP/Android does).
* ``slew(delta, rate)`` — bounded-rate phase adjustment (ntpd-style).
* ``adjust_frequency(ppm)`` — persistent frequency trim (drift correction).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.clock.oscillator import Oscillator
from repro.clock.temperature import ConstantTemperature, TemperatureProfile


class SimClock:
    """A drifting local clock driven by virtual (true) time.

    Args:
        oscillator: Hardware model supplying frequency error.
        now_fn: Callable returning current true time (the simulator's
            ``now``).  Keeping this a callable decouples the clock from
            the kernel.
        temperature: Ambient temperature profile (defaults to constant).
        initial_offset: Starting offset (seconds, local - true).
        update_interval: Wander integration granularity; wander is drawn
            in chunks of at most this many seconds for numerical
            fidelity on long gaps between reads.
    """

    def __init__(
        self,
        oscillator: Oscillator,
        now_fn: Callable[[], float],
        temperature: Optional[TemperatureProfile] = None,
        initial_offset: float = 0.0,
        update_interval: float = 10.0,
    ) -> None:
        if update_interval <= 0:
            raise ValueError("update interval must be positive")
        self.oscillator = oscillator
        self._now_fn = now_fn
        self.temperature = temperature or ConstantTemperature()
        self._offset = float(initial_offset)
        self._wander_ppm = 0.0
        self._freq_adjust_ppm = 0.0
        self._last_true = float(now_fn())
        self._update_interval = float(update_interval)
        # Pending slew state: remaining seconds to absorb and rate cap.
        self._slew_remaining = 0.0
        self._slew_rate = 0.0
        self.step_count = 0
        self.slew_count = 0

    # -- state advancement -----------------------------------------------

    def _advance_to(self, true_now: float) -> None:
        """Integrate offset/wander forward from the last update."""
        if true_now < self._last_true:
            raise ValueError(
                f"true time moved backwards: {true_now} < {self._last_true}"
            )
        t = self._last_true
        remaining = true_now - t
        self._last_true = true_now
        if not remaining > 0:
            return
        # Loop-local integrator: ``Oscillator.frequency_error`` is inlined
        # with its operations in the same order, so every float is unchanged.
        osc = self.oscillator
        base_skew_ppm = osc.base_skew_ppm
        temp_coeff = osc.grade.temp_coeff_ppm_per_k
        reference_temp_c = osc.grade.reference_temp_c
        wander_step = osc.wander_step
        temperature_at = self.temperature.at
        adjust = self._freq_adjust_ppm * 1e-6
        interval = self._update_interval
        offset = self._offset
        wander_ppm = self._wander_ppm
        while remaining > 0:
            dt = min(remaining, interval)
            temp_term = temp_coeff * (temperature_at(t) - reference_temp_c)
            freq = (base_skew_ppm + wander_ppm + temp_term) * 1e-6 + adjust
            offset += freq * dt
            if self._slew_remaining != 0.0:
                self._offset = offset
                self._apply_slew(dt)
                offset = self._offset
            wander_ppm += wander_step(dt)
            t += dt
            remaining -= dt
        self._offset = offset
        self._wander_ppm = wander_ppm

    def _apply_slew(self, dt: float) -> None:
        max_adjust = self._slew_rate * dt
        if abs(self._slew_remaining) <= max_adjust:
            adjust = self._slew_remaining
        else:
            adjust = max_adjust if self._slew_remaining > 0 else -max_adjust
        self._offset += adjust
        self._slew_remaining -= adjust

    # -- reads -------------------------------------------------------------

    def read(self) -> float:
        """Local clock time now (seconds)."""
        true_now = self._now_fn()
        self._advance_to(true_now)
        return true_now + self._offset

    def true_offset(self) -> float:
        """Ground-truth offset (local - true), the paper's 'true time offset'."""
        self._advance_to(self._now_fn())
        return self._offset

    def current_skew(self) -> float:
        """Instantaneous fractional frequency error including adjustments."""
        true_now = self._now_fn()
        self._advance_to(true_now)
        return (
            self.oscillator.frequency_error(
                self._wander_ppm, self.temperature.at(true_now)
            )
            + self._freq_adjust_ppm * 1e-6
        )

    # -- corrections --------------------------------------------------------

    def step(self, delta: float) -> None:
        """Jump local time by ``delta`` seconds (positive = advance)."""
        self._advance_to(self._now_fn())
        self._offset += delta
        self.step_count += 1

    def slew(self, delta: float, rate: float = 500e-6) -> None:
        """Absorb ``delta`` seconds gradually at ``rate`` s/s (default
        500 ppm, ntpd's maximum slew rate)."""
        if rate <= 0:
            raise ValueError("slew rate must be positive")
        self._advance_to(self._now_fn())
        self._slew_remaining += delta
        self._slew_rate = rate
        self.slew_count += 1

    def adjust_frequency(self, ppm: float) -> None:
        """Set the persistent frequency trim to ``ppm`` (absolute, not
        cumulative) — models ``adjtimex`` frequency discipline."""
        self._advance_to(self._now_fn())
        self._freq_adjust_ppm = float(ppm)

    def nudge_frequency(self, delta_ppm: float) -> None:
        """Add ``delta_ppm`` to the current frequency trim."""
        self._advance_to(self._now_fn())
        self._freq_adjust_ppm += float(delta_ppm)

    @property
    def frequency_adjustment_ppm(self) -> float:
        """Current discipline-applied frequency trim."""
        return self._freq_adjust_ppm
