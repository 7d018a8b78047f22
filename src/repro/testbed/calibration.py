"""Channel/testbed calibration checks.

DESIGN.md calibrates the wireless substrate to the paper's Figure-4
statistics.  This module re-derives those statistics from fresh runs
and scores them against the published targets, so anyone adjusting
channel parameters can see at a glance what they broke.  Used by the
``repro-mntp calibrate`` CLI command and by the integration tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.testbed.specs import run_scenario


@dataclass(frozen=True)
class CalibrationTarget:
    """One published statistic with an acceptance band.

    Attributes:
        name: Target identifier.
        paper_value: The published number (seconds).
        low / high: Acceptance band for the measured value (seconds) —
            generous, because the shape is the goal, not the digits.
    """

    name: str
    paper_value: float
    low: float
    high: float

    def check(self, measured: float) -> bool:
        """Whether the measured value falls in the acceptance band."""
        return self.low <= measured <= self.high


#: Figure-4 calibration targets (seconds).
TARGETS: List[CalibrationTarget] = [
    CalibrationTarget("wired_corrected_mean", 0.004, 0.0005, 0.015),
    CalibrationTarget("wired_corrected_std", 0.007, 0.0005, 0.020),
    CalibrationTarget("wireless_corrected_mean", 0.031, 0.010, 0.090),
    CalibrationTarget("wireless_corrected_std", 0.047, 0.015, 0.200),
    CalibrationTarget("wireless_corrected_max", 0.600, 0.200, 1.600),
    CalibrationTarget("wireless_uncorrected_mean", 0.118, 0.020, 0.250),
]


@dataclass
class CalibrationReport:
    """Measured values and verdicts for all targets."""

    measured: Dict[str, float]
    verdicts: Dict[str, bool]

    @property
    def ok(self) -> bool:
        """Whether every target is inside its band."""
        return all(self.verdicts.values())

    def rows(self) -> List[List[str]]:
        """Table rows: target, paper, measured, band, verdict."""
        out = []
        for target in TARGETS:
            measured = self.measured[target.name]
            out.append([
                target.name,
                f"{target.paper_value * 1000:.0f}",
                f"{measured * 1000:.1f}",
                f"{target.low * 1000:.0f}-{target.high * 1000:.0f}",
                "ok" if self.verdicts[target.name] else "OUT",
            ])
        return out


def run_calibration(seed: int = 1) -> CalibrationReport:
    """Run the Figure-4 conditions and score them against the targets."""
    wired = run_scenario("wired_corrected", seed=seed).sntp_stats()
    wifi_c = run_scenario("wireless_corrected", seed=seed).sntp_stats()
    wifi_u = run_scenario("wireless_uncorrected", seed=seed).sntp_stats()
    measured = {
        "wired_corrected_mean": wired.mean_abs,
        "wired_corrected_std": wired.std_abs,
        "wireless_corrected_mean": wifi_c.mean_abs,
        "wireless_corrected_std": wifi_c.std_abs,
        "wireless_corrected_max": wifi_c.max_abs,
        "wireless_uncorrected_mean": wifi_u.mean_abs,
    }
    verdicts = {t.name: t.check(measured[t.name]) for t in TARGETS}
    return CalibrationReport(measured=measured, verdicts=verdicts)
