"""Crystal oscillator models.

The paper attributes clock drift to "differences in environmental
conditions or crystal oscillator quality".  We model an oscillator by

* a constant frequency error (parts per million, the dominant term per
  Murdoch CCS'06, which the paper cites for "the constant skew factor
  dominates its variable counterpart"),
* a random-walk frequency wander intensity, and
* a temperature coefficient (ppm per Kelvin away from a reference
  temperature), the mechanism behind the paper's observation that wired
  free-running drift "is dependent on the temperature of the
  vendor-specific oscillator".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.simcore.random import block_reader


@dataclass(frozen=True)
class OscillatorGrade:
    """Parameter bundle describing one quality class of oscillator.

    Attributes:
        name: Grade identifier.
        base_skew_ppm_sigma: Std-dev of the constant frequency error draw.
        wander_ppm_per_sqrt_s: Random-walk frequency intensity.
        temp_coeff_ppm_per_k: Frequency sensitivity to temperature.
        reference_temp_c: Temperature at which the temp term vanishes.
    """

    name: str
    base_skew_ppm_sigma: float
    wander_ppm_per_sqrt_s: float
    temp_coeff_ppm_per_k: float
    reference_temp_c: float = 25.0

    def __post_init__(self) -> None:
        # The scale of the standard-form draw in ``Oscillator.wander_step``.
        if not self.wander_ppm_per_sqrt_s >= 0.0:
            raise ValueError(
                f"wander_ppm_per_sqrt_s must be non-negative, got {self.wander_ppm_per_sqrt_s!r}"
            )


#: Canonical grades.  Values are representative of commodity hardware:
#: laptop/phone crystals sit in the 1-50 ppm class; OCXO/GPS-disciplined
#: references used by stratum servers are orders of magnitude better.
OSCILLATOR_GRADES: Dict[str, OscillatorGrade] = {
    "reference": OscillatorGrade(
        name="reference",
        base_skew_ppm_sigma=1e-4,
        wander_ppm_per_sqrt_s=1e-6,
        temp_coeff_ppm_per_k=1e-5,
    ),
    "server": OscillatorGrade(
        name="server",
        base_skew_ppm_sigma=0.5,
        wander_ppm_per_sqrt_s=1e-4,
        temp_coeff_ppm_per_k=0.01,
    ),
    "laptop": OscillatorGrade(
        name="laptop",
        base_skew_ppm_sigma=15.0,
        wander_ppm_per_sqrt_s=2e-3,
        temp_coeff_ppm_per_k=0.08,
    ),
    "phone": OscillatorGrade(
        name="phone",
        base_skew_ppm_sigma=25.0,
        wander_ppm_per_sqrt_s=5e-3,
        temp_coeff_ppm_per_k=0.15,
    ),
}


class Oscillator:
    """A concrete oscillator instance drawn from a grade.

    The constant skew is sampled once at construction from the grade's
    distribution; wander is integrated by the owning clock.  After that
    one ``normal`` draw the stream is only ever read through
    ``standard_normal``, so the wander steps are read a block at a time.
    """

    def __init__(self, grade: OscillatorGrade, rng: np.random.Generator) -> None:
        self.grade = grade
        self.base_skew_ppm = float(rng.normal(0.0, grade.base_skew_ppm_sigma))
        self._standard_normal = block_reader(rng.standard_normal)

    def frequency_error(self, wander_ppm: float, temperature_c: float) -> float:
        """Total fractional frequency error (dimensionless, s/s).

        Args:
            wander_ppm: Accumulated random-walk component in ppm.
            temperature_c: Current ambient temperature.
        """
        temp_term = self.grade.temp_coeff_ppm_per_k * (
            temperature_c - self.grade.reference_temp_c
        )
        total_ppm = self.base_skew_ppm + wander_ppm + temp_term
        return total_ppm * 1e-6

    def wander_step(self, dt: float) -> float:
        """Draw the random-walk frequency increment (ppm) over ``dt`` seconds."""
        if dt < 0:
            raise ValueError("dt must be non-negative")
        if dt == 0:
            return 0.0
        sigma = self.grade.wander_ppm_per_sqrt_s * (dt**0.5)
        return sigma * self._standard_normal()
