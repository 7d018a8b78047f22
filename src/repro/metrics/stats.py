"""Basic summary statistics.

All functions accept any 1-D sequence of floats and are NaN-free by
contract: callers filter invalid samples first (the analysis pipeline's
heuristics do this explicitly, mirroring the paper's filtering step).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np


def rmse(values: Sequence[float], target: float = 0.0) -> float:
    """Root mean square error of ``values`` against ``target``.

    This is the tuner's accuracy metric: "RMSE of the MNTP offsets with
    respect to a perfectly synchronized clock (i.e., offset value of
    0 ms)".  Returns 0.0 for an empty input.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return 0.0
    return float(math.sqrt(((arr - target) ** 2).mean()))

