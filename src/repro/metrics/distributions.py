"""Quantile helpers for the figure reproductions."""

from __future__ import annotations

from typing import Sequence

import numpy as np


def quantile(values: Sequence[float], q: float) -> float:
    """Quantile ``q`` in [0, 1] (linear interpolation); 0.0 if empty."""
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be in [0, 1]")
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return 0.0
    return float(np.quantile(arr, q))


def iqr(values: Sequence[float]) -> float:
    """Interquartile range — the paper's spread measure in Figure 1."""
    return quantile(values, 0.75) - quantile(values, 0.25)

