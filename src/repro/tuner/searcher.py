"""The tuner's search component.

"When provided with a range of values for the input parameters ... the
search component generates all possible values of the parameters and
invokes the emulator for each generated combination", then scores each
configuration by the RMSE of the reported offsets against a perfectly
synchronized clock and the number of requests generated (Table 2).
The grid is replayed in one pass (:func:`repro.tuner.emulator.replay_grid`),
which gives every configuration the result its own emulator run would.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.core.config import MntpConfig
from repro.obs.telemetry import Telemetry
from repro.tuner.emulator import EmulationResult, MntpEmulator, replay_grid
from repro.tuner.traces import OffsetTrace


@dataclass(frozen=True)
class SearchSpace:
    """Candidate values (seconds) for the four MNTP parameters.

    Defaults span Table 2's sampled configurations.
    """

    warmup_periods: Sequence[float] = (30 * 60, 40 * 60, 50 * 60, 70 * 60, 90 * 60, 240 * 60)
    warmup_wait_times: Sequence[float] = (0.084 * 60, 0.25 * 60)
    regular_wait_times: Sequence[float] = (15 * 60, 30 * 60)
    reset_periods: Sequence[float] = (240 * 60,)

    def combinations(self) -> "List[tuple[float, float, float, float]]":
        """Cartesian product, skipping degenerate combinations where
        the warm-up does not fit in the reset period."""
        out = []
        for wp, ww, rw, rp in itertools.product(
            self.warmup_periods,
            self.warmup_wait_times,
            self.regular_wait_times,
            self.reset_periods,
        ):
            if wp > rp:
                continue
            out.append((wp, ww, rw, rp))
        return out


@dataclass
class SearchResult:
    """One evaluated configuration.

    Attributes:
        config: The parameter combination.
        rmse_ms: Accuracy score (Table 2's RMSE column).
        requests: Request count (Table 2's last column).
        reported_count: Accepted, corrected offsets entering the RMSE.
    """

    config: MntpConfig
    rmse_ms: float
    requests: int
    reported_count: int

    def row(self) -> "tuple[float, float, float, float, float, int]":
        """Table-2-shaped row: parameters in minutes, RMSE, requests."""
        c = self.config
        return (
            c.warmup_period / 60,
            c.warmup_wait_time / 60,
            c.regular_wait_time / 60,
            c.reset_period / 60,
            self.rmse_ms,
            self.requests,
        )


@dataclass
class ParameterSearcher:
    """Exhaustive grid search over a :class:`SearchSpace`.

    Attributes:
        trace: The recorded trace to replay.
        base_config: Template whose non-swept fields (thresholds,
            toggles) every candidate inherits.
        space: The grid.
        telemetry: Optional telemetry bundle; each evaluation becomes a
            ``tuner.eval`` span and bumps ``tuner_evaluations_total``.
            A :meth:`Telemetry.standalone` bundle (manual clock) keeps
            the coordinates deterministic — there is no virtual clock
            during offline grid search.
    """

    trace: OffsetTrace
    base_config: MntpConfig = field(default_factory=MntpConfig)
    space: SearchSpace = field(default_factory=SearchSpace)
    telemetry: Optional[Telemetry] = None

    def search(self) -> List[SearchResult]:
        """Evaluate every combination; results sorted best-RMSE first.

        Configurations that reported no offset have no meaningful RMSE
        (it reads 0.0), so they sort after every one that did.
        """
        configs = [
            self.base_config.with_overrides(
                warmup_period=wp,
                warmup_wait_time=ww,
                regular_wait_time=rw,
                reset_period=rp,
            )
            for wp, ww, rw, rp in self.space.combinations()
        ]
        emulations = replay_grid(self.trace, configs)
        results = [
            self.evaluate(config, emulation)
            for config, emulation in zip(configs, emulations)
        ]
        results.sort(key=lambda r: (r.reported_count == 0, r.rmse_ms))
        return results

    def evaluate(
        self, config: MntpConfig, emulation: Optional[EmulationResult] = None
    ) -> SearchResult:
        """Score a single configuration (used for Table 2's rows).

        ``emulation`` is the configuration's replay when the caller has
        it already (:meth:`search` replays the whole grid at once);
        otherwise the configuration is replayed here.
        """
        span = None
        if self.telemetry is not None:
            span = self.telemetry.spans.begin(
                "tuner.eval",
                warmup_period=config.warmup_period,
                warmup_wait_time=config.warmup_wait_time,
                regular_wait_time=config.regular_wait_time,
                reset_period=config.reset_period,
            )
        if emulation is None:
            emulation = MntpEmulator(self.trace, config).run()
        result = SearchResult(
            config=config,
            rmse_ms=emulation.rmse_ms(),
            requests=emulation.requests,
            reported_count=len(emulation.reported),
        )
        if span is not None:
            if self.telemetry.manual:
                self.telemetry.advance()
            span.end(rmse_ms=round(result.rmse_ms, 6), requests=result.requests)
        return result
