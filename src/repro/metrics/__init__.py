"""Statistics helpers shared by the analysis pipeline and benches."""

from repro._lazy import lazy_exports

__all__ = [
    "rmse",
    "quantile",
    "iqr",
    "allan_deviation",
    "allan_deviation_curve",
]

# Re-exports resolve on first use: the tuner's replay scores with
# ``rmse`` alone and loads neither the quantiles nor the Allan deviation.
_HOMES = {
    "repro.metrics.stats": ("rmse",),
    "repro.metrics.distributions": ("quantile", "iqr"),
    "repro.metrics.allan": ("allan_deviation", "allan_deviation_curve"),
}

__getattr__, __dir__ = lazy_exports(globals(), _HOMES)
