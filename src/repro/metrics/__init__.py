"""Statistics helpers shared by the analysis pipeline and benches."""

from repro.metrics.stats import rmse
from repro.metrics.distributions import quantile, iqr
from repro.metrics.allan import allan_deviation, allan_deviation_curve

__all__ = [
    "rmse",
    "quantile",
    "iqr",
    "allan_deviation",
    "allan_deviation_curve",
]
