"""The wireless-hint gate: ``favorableSNRCondition()`` of Algorithm 1."""

from __future__ import annotations

from typing import Protocol

from repro.core.config import HintThresholds


class HintReading(Protocol):
    """Anything holding an RSSI/noise reading: a
    :class:`~repro.wireless.hints.WirelessHints` or a logged
    :class:`~repro.tuner.traces.TraceEntry`."""

    @property
    def rssi_dbm(self) -> float:
        """Received signal strength (dBm)."""
        ...

    @property
    def noise_dbm(self) -> float:
        """Noise floor (dBm)."""
        ...


def favorable_snr_condition(hints: HintReading, thresholds: HintThresholds) -> bool:
    """Whether the channel currently looks stable enough to query.

    All three conditions must hold (§4.2): RSSI above the floor, noise
    below the ceiling, and SNR margin (``rssi_dbm - noise_dbm``, the
    float ``WirelessHints.snr_margin_db`` reads) at or above the minimum.
    """
    return (
        hints.rssi_dbm > thresholds.min_rssi_dbm
        and hints.noise_dbm < thresholds.max_noise_dbm
        and hints.rssi_dbm - hints.noise_dbm >= thresholds.min_snr_margin_db
    )


def failing_conditions(hints: HintReading, thresholds: HintThresholds) -> "list[str]":
    """Names of the threshold(s) a reading violates — used by the
    Figure-7 signals/selection reproduction to attribute deferrals."""
    failures = []
    if hints.rssi_dbm <= thresholds.min_rssi_dbm:
        failures.append("rssi")
    if hints.noise_dbm >= thresholds.max_noise_dbm:
        failures.append("noise")
    if hints.rssi_dbm - hints.noise_dbm < thresholds.min_snr_margin_db:
        failures.append("snr_margin")
    return failures
