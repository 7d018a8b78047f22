"""The MNTP offset filter.

Implements §4.2's accept/reject rule: extend the fitted trend line to
the candidate's measurement time, compute the squared error of the
reported offset against that prediction, and reject when the squared
error falls more than one standard deviation above the mean of the
historical squared residuals (two-sided optionally, per the paper's
literal wording).  Until :attr:`min_samples` offsets are recorded, and
the trend line through them is fit, the filter is in bootstrap mode and
accepts everything (the warm-up's "record 10 offset values ... to
create a trend line").
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.core.trend import TrendLine


class FilterDecision(Enum):
    """Why a candidate was accepted or rejected."""

    ACCEPT_BOOTSTRAP = "accept_bootstrap"
    ACCEPT = "accept"
    REJECT_HIGH_ERROR = "reject_high_error"
    REJECT_LOW_ERROR = "reject_low_error"  # two-sided mode only

    @property
    def accepted(self) -> bool:
        """Whether the sample enters the record."""
        return self in (FilterDecision.ACCEPT_BOOTSTRAP, FilterDecision.ACCEPT)


@dataclass(frozen=True)
class FilterOutcome:
    """Decision plus the quantities that produced it (for traces).

    Attributes:
        decision: The verdict.
        predicted: Trend-line prediction at the sample time (NaN in
            bootstrap mode).
        squared_error: Squared error vs the prediction (NaN bootstrap).
        gate: mean + std of historical squared residuals (NaN bootstrap).
    """

    decision: FilterDecision
    predicted: float = float("nan")
    squared_error: float = float("nan")
    gate: float = float("nan")


class OffsetFilter:
    """Stateful accept/reject filter around a :class:`TrendLine`.

    Args:
        min_samples: Bootstrap sample count (paper: 10).
        gate_floor: Absolute residual (seconds) always considered
            acceptable.  The mean+1σ squared-error gate collapses to
            near zero after a very clean bootstrap, which starves the
            regular phase (the failure mode §5.3 reports); the floor
            encodes the irreducible SNTP measurement noise.
        max_consecutive_rejections: After this many rejections in a row
            the filter concludes its trend line is wrong (e.g. the
            bootstrap happened inside a channel burst and fitted a bogus
            slope) and re-enters bootstrap.  This is the second guard
            against the §5.3 starvation mode: re-estimation alone cannot
            recover when nothing is being accepted.
        two_sided: Also reject squared errors 1σ *below* the mean.
        reestimate_every_sample: Re-fit on every accepted sample (§5.3
            fix).  When False the trend is frozen after bootstrap and
            only un-freezes on :meth:`reset` — reproducing the pre-fix
            behaviour whose drift underestimation starves the regular
            phase.
    """

    def __init__(
        self,
        min_samples: int = 10,
        gate_floor: float = 0.010,
        max_consecutive_rejections: int = 20,
        two_sided: bool = False,
        reestimate_every_sample: bool = True,
    ) -> None:
        if min_samples < 2:
            raise ValueError("need at least 2 bootstrap samples")
        # ``not value >= bound`` also rejects NaN, which compares False
        # to everything (a NaN floor would silently switch the floor off).
        if not gate_floor >= 0:
            raise ValueError("gate_floor must be non-negative")
        if not max_consecutive_rejections >= 1:
            raise ValueError("max_consecutive_rejections must be at least 1")
        self.min_samples = min_samples
        self.gate_floor = gate_floor
        self.max_consecutive_rejections = max_consecutive_rejections
        self.two_sided = two_sided
        self.reestimate_every_sample = reestimate_every_sample
        self.trend = TrendLine()
        self._frozen_trend: TrendLine | None = None
        self._bootstrap_offers = 0
        self._bootstrap_done = False
        self._consecutive_rejections = 0
        self.rebootstrap_count = 0
        self.accepted_count = 0
        self.rejected_count = 0

    # -- queries -----------------------------------------------------------

    @property
    def bootstrapped(self) -> bool:
        """Whether the bootstrap phase has completed and the trend gates."""
        return self._bootstrap_done

    def drift_estimate(self) -> float | None:
        """Current drift (slope) estimate in s/s, or None pre-fit."""
        return self._active_trend().slope

    def _active_trend(self) -> TrendLine:
        if self.reestimate_every_sample or self._frozen_trend is None:
            return self.trend
        return self._frozen_trend

    # -- the accept/reject rule ----------------------------------------------

    def offer(self, time: float, offset: float) -> FilterOutcome:
        """Evaluate one candidate; accepted samples update the record."""
        if not self._bootstrap_done:
            self.trend.add(time, offset)
            self.accepted_count += 1
            self._bootstrap_offers += 1
            # Bootstrap lasts until the trend is fit, not just counted:
            # points that share one time fit no line.
            if (self._bootstrap_offers >= self.min_samples
                    and self.trend.slope is not None):
                # The bootstrap set was accepted blind; before the trend
                # starts gating, discard bootstrap points whose squared
                # residual exceeds mean+1σ (the same philosophy as the
                # warm-up false-ticker rejection) so a channel burst
                # during bootstrap cannot poison the gate.
                self._trim_bootstrap()
                self._bootstrap_done = True
                if not self.reestimate_every_sample:
                    self._freeze()
            return FilterOutcome(decision=FilterDecision.ACCEPT_BOOTSTRAP)

        trend = self._active_trend()
        predicted = trend.predict(time)
        assert predicted is not None  # bootstrapped implies >= 2 points
        squared_error = (offset - predicted) ** 2
        mean_r2, std_r2 = trend.residual_stats()
        gate_high = max(mean_r2 + std_r2, self.gate_floor**2)
        gate_low = mean_r2 - std_r2

        if squared_error > gate_high:
            self._note_rejection()
            return FilterOutcome(
                decision=FilterDecision.REJECT_HIGH_ERROR,
                predicted=predicted,
                squared_error=squared_error,
                gate=gate_high,
            )
        if self.two_sided and squared_error < gate_low:
            self._note_rejection()
            return FilterOutcome(
                decision=FilterDecision.REJECT_LOW_ERROR,
                predicted=predicted,
                squared_error=squared_error,
                gate=gate_low,
            )
        self._consecutive_rejections = 0
        self.trend.add(time, offset)
        self.accepted_count += 1
        return FilterOutcome(
            decision=FilterDecision.ACCEPT,
            predicted=predicted,
            squared_error=squared_error,
            gate=gate_high,
        )

    def _note_rejection(self) -> None:
        self.rejected_count += 1
        self._consecutive_rejections += 1
        if self._consecutive_rejections >= self.max_consecutive_rejections:
            self.reset()
            self.rebootstrap_count += 1

    def _trim_bootstrap(self) -> None:
        errs = self.trend.squared_errors()
        if errs.size < 3:
            return
        mean_r2, std_r2 = self.trend.residual_stats()
        gate = mean_r2 + std_r2
        times, offsets = self.trend.points()
        kept = [
            (t, o) for (t, o, e) in zip(times, offsets, errs) if e <= gate
        ]
        # Never trim below half the bootstrap set — with too few points
        # the refit line is meaningless.
        if len(kept) < max(2, len(times) // 2):
            return
        if len({t for t, _ in kept}) < 2:
            return  # the trimmed set would span no time and fit no line
        self.trend.clear()
        for t, o in kept:
            self.trend.add(t, o)

    def _freeze(self) -> None:
        frozen = TrendLine()
        for t, o in zip(*self.trend.points()):
            frozen.add(t, o)
        self._frozen_trend = frozen

    def reset(self) -> None:
        """Forget everything (protocol reset period)."""
        self.trend.clear()
        self._frozen_trend = None
        self._bootstrap_offers = 0
        self._bootstrap_done = False
