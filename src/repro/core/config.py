"""MNTP configuration.

The four Algorithm-1 inputs plus the hint thresholds of §4.2 and the
feature toggles the paper's evaluation uses (drift correction off for
the head-to-head baseline; warm-up skipped in §5.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict


@dataclass(frozen=True)
class HintThresholds:
    """Baseline thresholds for the wireless hints (§4.2).

    The paper: "RSSI value should be greater than -75 dB, noise level
    should be lesser than -70 dB and the SNR margin should be greater
    than or equal to 20 dB."
    """

    min_rssi_dbm: float = -75.0
    max_noise_dbm: float = -70.0
    min_snr_margin_db: float = 20.0


@dataclass(frozen=True)
class MntpConfig:
    """Full MNTP parameter set.

    Attributes:
        warmup_period: Duration of the warm-up phase (seconds).
        warmup_wait_time: Gap between warm-up requests (seconds).
        regular_wait_time: Gap between regular-phase requests (seconds).
        reset_period: Warm-up + regular duration before a full reset.
        thresholds: Wireless-hint gate values.
        min_warmup_samples: Offsets required before the trend line is
            considered established (paper: 10).
        filter_gate_floor: Residual magnitude (seconds) the filter always
            accepts, encoding irreducible SNTP noise (see
            :class:`repro.core.filter.OffsetFilter`).
        max_consecutive_rejections: Rejection streak after which the
            filter re-enters bootstrap (starvation escape).
        max_drift_correction_ppm: Clamp on the frequency trim applied at
            warm-up completion.  Crystal frequency errors are tens of
            ppm at most; a trend-line slope beyond this is a poisoned
            estimate (channel burst during warm-up), and trimming by it
            would run the clock away until the next reset.
        hint_poll_interval: How often the gate re-checks hints while
            deferring (seconds).
        query_timeout: Per-request response timeout (seconds).
        enable_hint_gate: Pace requests on channel conditions.
        enable_filter: Apply trend-line accept/reject.
        enable_drift_correction: Apply the frequency trim at the start
            of the regular phase (off in the §5.1 head-to-head runs).
        enable_clock_correction: Apply phase corrections on accepted
            regular-phase offsets (off in measurement-only baselines).
        reestimate_every_sample: Re-fit the trend on every accepted
            sample (the §5.3 fix); False reproduces the pre-fix filter.
        enable_step_recovery: Graceful degradation after an upstream
            step: a sustained same-sign trend-line residual breach
            re-enters warm-up with a compensation reset instead of
            rejecting samples until the next scheduled reset.  Off by
            default to preserve the paper-baseline behaviour.
        step_recovery_rejections: Consecutive same-sign breaches that
            constitute a detected step.
        step_recovery_min_residual: Residual magnitude (seconds) that
            counts toward the streak; smaller residuals reset it.
        two_sided_rejection: Reject squared errors more than 1σ *below*
            the mean as well (the paper's literal wording); the default
            one-sided gate only rejects high outliers.
        warmup_pools: Pool hostnames queried in parallel during warm-up.
        regular_source: Single source queried in the regular phase.
    """

    warmup_period: float = 1800.0
    warmup_wait_time: float = 15.0
    regular_wait_time: float = 900.0
    reset_period: float = 14_400.0
    thresholds: HintThresholds = field(default_factory=HintThresholds)
    min_warmup_samples: int = 10
    filter_gate_floor: float = 0.010
    max_consecutive_rejections: int = 20
    max_drift_correction_ppm: float = 50.0
    hint_poll_interval: float = 1.0
    query_timeout: float = 2.0
    enable_hint_gate: bool = True
    enable_filter: bool = True
    enable_drift_correction: bool = True
    enable_clock_correction: bool = True
    reestimate_every_sample: bool = True
    two_sided_rejection: bool = False
    enable_step_recovery: bool = False
    step_recovery_rejections: int = 6
    step_recovery_min_residual: float = 0.05
    warmup_pools: "tuple[str, ...]" = (
        "0.pool.ntp.org",
        "1.pool.ntp.org",
        "3.pool.ntp.org",  # the paper skips 2.pool.ntp.org
    )
    regular_source: str = "0.pool.ntp.org"

    def __post_init__(self) -> None:
        # ``not value > 0`` also rejects NaN, which compares False to
        # everything; inf stays allowed (``baseline_headtohead``).
        for name in ("warmup_period", "warmup_wait_time", "regular_wait_time", "reset_period"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.min_warmup_samples < 2:
            raise ValueError("need at least 2 warm-up samples to fit a line")
        if not self.warmup_pools:
            raise ValueError("warm-up needs at least one pool")
        if not self.filter_gate_floor >= 0:
            raise ValueError("filter_gate_floor must be non-negative")
        if not self.max_consecutive_rejections >= 1:
            raise ValueError("max_consecutive_rejections must be at least 1")
        if self.step_recovery_rejections < 2:
            raise ValueError("step detection needs at least 2 breaches")
        if not self.step_recovery_min_residual > 0:
            raise ValueError("step_recovery_min_residual must be positive")

    def with_overrides(self, **kwargs) -> "MntpConfig":
        """Return a copy with fields replaced (convenience for sweeps)."""
        return replace(self, **kwargs)

    @classmethod
    def baseline_headtohead(cls, cadence_s: float = 5.0) -> "MntpConfig":
        """§5.1 baseline setup: requests every 5 s for an hour, "we do
        not consider warmup and regular periods, and we switched off the
        drift correction feature" — realised as a warm-up that spans the
        whole run with measurement-only corrections."""
        return cls(
            warmup_period=3600.0 * 24,
            warmup_wait_time=cadence_s,
            regular_wait_time=cadence_s,
            reset_period=3600.0 * 48,
            enable_drift_correction=False,
            enable_clock_correction=False,
        )


#: Table 2's six sample tuner configurations (minutes in the paper,
#: seconds here), keyed by configuration number.
TABLE2_CONFIGS: Dict[int, MntpConfig] = {
    1: MntpConfig(warmup_period=30 * 60, warmup_wait_time=0.25 * 60,
                  regular_wait_time=15 * 60, reset_period=240 * 60),
    2: MntpConfig(warmup_period=40 * 60, warmup_wait_time=0.25 * 60,
                  regular_wait_time=15 * 60, reset_period=240 * 60),
    3: MntpConfig(warmup_period=50 * 60, warmup_wait_time=0.25 * 60,
                  regular_wait_time=15 * 60, reset_period=240 * 60),
    4: MntpConfig(warmup_period=70 * 60, warmup_wait_time=0.25 * 60,
                  regular_wait_time=30 * 60, reset_period=240 * 60),
    5: MntpConfig(warmup_period=90 * 60, warmup_wait_time=0.084 * 60,
                  regular_wait_time=15 * 60, reset_period=240 * 60),
    6: MntpConfig(warmup_period=240 * 60, warmup_wait_time=0.084 * 60,
                  regular_wait_time=15 * 60, reset_period=240 * 60),
}
