"""Bit-equality helpers for the tests that hold ``core``'s numerics to
the numpy calls they replaced."""

import math

import numpy as np

#: Appended to every parity failure: what to do when numpy changes.
HINT = (
    f"differs from numpy {np.__version__}'s own result. If a numpy upgrade "
    "changed its summation or fitting order or a draw's arithmetic, see "
    "DESIGN.md §3 'Core numerics in numpy's order' and 'Model draws in "
    "standard form': fall back to the numpy calls, or regolden the pinned "
    "results (ROADMAP #1)."
)


def same(a, b) -> bool:
    """Whether two floats (or two Nones) are the same float: NaN equals
    NaN, and 0.0 differs from -0.0."""
    if a is None or b is None:
        return a is None and b is None
    a, b = float(a), float(b)
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def same_array(a: np.ndarray, b: np.ndarray) -> bool:
    """:func:`same`, element by element, for two arrays of one shape."""
    return a.shape == b.shape and all(same(x, y) for x, y in zip(a.tolist(), b.tolist()))
