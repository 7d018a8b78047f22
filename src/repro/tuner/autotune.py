"""Self-tuning of MNTP parameters (the paper's §7 future work).

"We also plan to investigate self-tuning of parameter settings and ...
to evaluate the trade-offs between MNTP's performance and the tuning of
its parameters."

:class:`AutoTuner` closes the loop the paper left open: given a
recorded trace, it grid-searches the parameter space, computes the
accuracy/request-count trade-off, and recommends the cheapest
configuration meeting an accuracy target — or,
dually, the most accurate configuration within a request budget.  The
Pareto front of (requests, RMSE) quantifies the §5.3 trade-off
directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.config import MntpConfig
from repro.tuner.searcher import ParameterSearcher, SearchResult, SearchSpace
from repro.tuner.traces import OffsetTrace


@dataclass(frozen=True)
class AutoTuneOptions:
    """Objective and constraints for a tuning pass.

    Attributes:
        target_rmse_ms: Accuracy the user's applications need; the
            tuner picks the *cheapest* configuration achieving it.
        max_requests_per_hour: Optional budget (battery constraint);
            configurations above it are excluded.
        min_reported: Configurations reporting fewer corrected offsets
            than this are considered unevaluated and skipped.
    """

    target_rmse_ms: float = 10.0
    max_requests_per_hour: Optional[float] = None
    min_reported: int = 5


@dataclass
class TuneOutcome:
    """Result of one tuning pass.

    Attributes:
        recommended: The chosen configuration (None if nothing viable).
        evaluated: All scored configurations.
        pareto: The (requests, RMSE) Pareto-efficient subset, sorted by
            request count.
        met_target: Whether the recommendation meets the RMSE target
            (otherwise it is the most accurate affordable one).
    """

    recommended: Optional[MntpConfig]
    evaluated: List[SearchResult] = field(default_factory=list)
    pareto: List[SearchResult] = field(default_factory=list)
    met_target: bool = False


class AutoTuner:
    """Grid-search-based parameter self-tuning over a trace."""

    def __init__(
        self,
        space: SearchSpace = SearchSpace(),
        base_config: MntpConfig = MntpConfig(),
        options: AutoTuneOptions = AutoTuneOptions(),
    ) -> None:
        self.space = space
        self.base_config = base_config
        self.options = options

    def tune(self, trace: OffsetTrace) -> TuneOutcome:
        """Run one tuning pass over ``trace``."""
        searcher = ParameterSearcher(
            trace, base_config=self.base_config, space=self.space
        )
        results = [
            r for r in searcher.search()
            if r.reported_count >= self.options.min_reported
        ]
        duration_h = max(trace.duration / 3600.0, 1e-9)
        affordable = results
        if self.options.max_requests_per_hour is not None:
            affordable = [
                r for r in results
                if r.requests / duration_h <= self.options.max_requests_per_hour
            ]
        pareto = self._pareto(results)
        if not affordable:
            return TuneOutcome(recommended=None, evaluated=results, pareto=pareto)
        meeting = [
            r for r in affordable if r.rmse_ms <= self.options.target_rmse_ms
        ]
        if meeting:
            # Cheapest configuration that meets the target.
            best = min(meeting, key=lambda r: (r.requests, r.rmse_ms))
            return TuneOutcome(
                recommended=best.config, evaluated=results, pareto=pareto,
                met_target=True,
            )
        # Target unreachable within budget: most accurate affordable.
        best = min(affordable, key=lambda r: r.rmse_ms)
        return TuneOutcome(
            recommended=best.config, evaluated=results, pareto=pareto,
            met_target=False,
        )

    @staticmethod
    def _pareto(results: List[SearchResult]) -> List[SearchResult]:
        """Pareto-efficient subset: no other config has both fewer
        requests and lower RMSE."""
        ordered = sorted(results, key=lambda r: (r.requests, r.rmse_ms))
        front: List[SearchResult] = []
        best_rmse = float("inf")
        for result in ordered:
            if result.rmse_ms < best_rmse:
                front.append(result)
                best_rmse = result.rmse_ms
        return front
