"""Ambient temperature profiles.

Temperature drives part of oscillator frequency error.  Profiles are
pure functions of virtual time, so experiments remain deterministic.
Each profile is a frozen dataclass fully described by its parameters,
so structural equality is behavioural equality (what scenario-spec
round-trip checks rely on).  Spec files name the profile under a
``"profile"`` tag (:data:`repro.codec.TAGGED_UNIONS`).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.codec import TAGGED_UNIONS


class TemperatureProfile(ABC):
    """Maps virtual time (seconds) to ambient temperature (Celsius)."""

    @abstractmethod
    def at(self, time: float) -> float:
        """Temperature at virtual ``time``."""


@dataclass(frozen=True)
class ConstantTemperature(TemperatureProfile):
    """Fixed ambient temperature — the paper's 'same ambient temperature'
    laboratory condition."""

    celsius_c: float = 25.0

    def at(self, time: float) -> float:
        return self.celsius_c


@dataclass(frozen=True)
class DiurnalTemperature(TemperatureProfile):
    """Sinusoidal day/night cycle around a mean.

    Used by longer in-situ style experiments and the oscillator ablation.
    """

    mean_c: float = 25.0
    amplitude_c: float = 4.0
    period_s: float = 86_400.0
    phase_s: float = 0.0

    def __post_init__(self) -> None:
        if self.period_s <= 0:
            raise ValueError("period must be positive")

    def at(self, time: float) -> float:
        angle = 2.0 * math.pi * (time + self.phase_s) / self.period_s
        return self.mean_c + self.amplitude_c * math.sin(angle)


@dataclass(frozen=True)
class RampTemperature(TemperatureProfile):
    """Linear warm-up (e.g. a device heating after boot), clamped at an
    end temperature."""

    start_c: float = 20.0
    end_c: float = 35.0
    ramp_duration_s: float = 1800.0

    def __post_init__(self) -> None:
        if self.ramp_duration_s <= 0:
            raise ValueError("ramp duration must be positive")

    def at(self, time: float) -> float:
        if time <= 0:
            return self.start_c
        if time >= self.ramp_duration_s:
            return self.end_c
        frac = time / self.ramp_duration_s
        return self.start_c + frac * (self.end_c - self.start_c)


TAGGED_UNIONS[TemperatureProfile] = ("profile", {
    "constant": ConstantTemperature,
    "diurnal": DiurnalTemperature,
    "ramp": RampTemperature,
})
