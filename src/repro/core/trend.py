"""Trend-line fitting for clock drift.

The paper fits "a trend line using least squares polynomial fit with a
first degree polynomial" over the recorded offsets — the slope is the
drift (skew) estimate, re-estimated on every accepted sample.  The
filter measures each candidate offset's squared error against the
line's extrapolation.

The fit performs ``np.polyfit(t - t0, offsets, 1)``'s own steps in its
order, so every coefficient is bit-identical to it; see DESIGN.md §3
"Core numerics in numpy's order".
"""

from __future__ import annotations

import math
import warnings
from typing import List, Optional, Tuple

import numpy as np
from numpy.linalg._umath_linalg import lstsq as _lapack_lstsq

_EPS = float(np.finfo(np.float64).eps)


def _unconverged(err: str, flag: int) -> None:
    """The error-state callback np.linalg.lstsq installs: LAPACK flags an
    SVD that did not converge as an invalid operation."""
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


class TrendLine:
    """Incrementally maintained degree-1 least-squares fit.

    Points are (time, offset) pairs.  The fit is recomputed from the
    stored points on demand; a ``max_points`` window bounds memory for
    long runs (the regular phase adds a point every request).  The line
    is unfit (``slope``/``predict`` read None) with fewer than two
    points, while its points span no time, or when the least-squares
    solve fails to converge.
    """

    def __init__(self, max_points: int = 4096) -> None:
        if max_points < 2:
            raise ValueError("window must hold at least 2 points")
        # The points are the window ``[_start, _end)`` of two float64
        # buffers, so a fit slices views instead of converting lists,
        # and an eviction only moves ``_start``.
        self._times = np.empty(16)
        self._offsets = np.empty(16)
        self._start = 0
        self._end = 0
        self._max_points = max_points
        self._coeffs: Optional[Tuple[float, float]] = None  # (slope, intercept)
        self._stats: Optional[Tuple[float, float]] = None
        self._dirty = True

    def __len__(self) -> int:
        return self._end - self._start

    def add(self, time: float, offset: float) -> None:
        """Record an accepted offset sample."""
        if self._end == len(self._times):
            self._compact()
        self._times[self._end] = time
        self._offsets[self._end] = offset
        self._end += 1
        if self._end - self._start > self._max_points:
            self._start += 1
        self._dirty = True

    def _compact(self) -> None:
        """Move the window to the front of buffers twice its size."""
        live = self._end - self._start
        size = max(16, 2 * live)
        for name in ("_times", "_offsets"):
            buffer = np.empty(size)
            buffer[:live] = getattr(self, name)[self._start:self._end]
            setattr(self, name, buffer)
        self._start, self._end = 0, live

    def clear(self) -> None:
        """Forget all samples (protocol reset)."""
        self._start = self._end = 0
        self._dirty = True

    def _fit(self) -> Optional[Tuple[float, float]]:
        if self._dirty:
            self._stats = None
            self._coeffs = None
            n = self._end - self._start
            t = self._times[self._start:self._end]
            # Points that span no time fit no line: polyfit would divide
            # 0/0 or return a rank-deficient fit.
            if n >= 2 and np.minimum.reduce(t) < np.maximum.reduce(t):
                # Centre time for numerical stability on large epochs.
                t0 = float(np.add.reduce(t)) / n
                # np.polyfit(t - t0, offsets, 1), step by step: the
                # ``+ 0.0`` copies (they turn -0.0 into 0.0), the
                # Vandermonde columns scaled to unit norm, the LAPACK
                # solve np.linalg.lstsq makes with rcond = n·eps, and
                # the scale taken back out.
                lhs = np.empty((n, 2))
                x = lhs[:, 0]
                np.subtract(t, t0, out=x)
                x += 0.0
                # polyfit's ``(lhs * lhs).sum(axis=0)`` adds the rows one
                # after another: a running sum of x², and exactly n for
                # the column of ones.
                scale_slope = math.sqrt(np.add.accumulate(x * x)[-1])
                scale_intercept = math.sqrt(n)
                x /= scale_slope
                lhs[:, 1] = 1.0 / scale_intercept
                y = self._offsets[self._start:self._end] + 0.0
                try:
                    with np.errstate(call=_unconverged, invalid="call",
                                     over="ignore", divide="ignore", under="ignore"):
                        c, _, rank, _ = _lapack_lstsq(lhs, y[:, None], n * _EPS,
                                                      signature="ddd->ddid")
                except np.linalg.LinAlgError:
                    # LAPACK's SVD can fail to converge (offsets at
                    # subnormal scale): the line stays unfit.
                    pass
                else:
                    if rank != 2:
                        warnings.warn("Polyfit may be poorly conditioned",
                                      np.exceptions.RankWarning, stacklevel=2)
                    (c_slope,), (c_intercept,) = c.tolist()
                    slope = c_slope / scale_slope
                    self._coeffs = (slope, c_intercept / scale_intercept - slope * t0)
            self._dirty = False
        return self._coeffs

    @property
    def slope(self) -> Optional[float]:
        """Drift estimate in seconds of offset per second, or None while
        the line is unfit."""
        coeffs = self._fit()
        return None if coeffs is None else coeffs[0]

    def predict(self, time: float) -> Optional[float]:
        """Extrapolated offset at ``time``, or None if unfit."""
        coeffs = self._fit()
        if coeffs is None:
            return None
        slope, intercept = coeffs
        return slope * time + intercept

    def squared_errors(self) -> np.ndarray:
        """Squared residuals of the recorded points against the fit
        (empty while unfit)."""
        coeffs = self._fit()
        if coeffs is None:
            return np.asarray([])
        slope, intercept = coeffs
        errs = slope * self._times[self._start:self._end]
        errs += intercept
        np.subtract(self._offsets[self._start:self._end], errs, out=errs)
        errs *= errs
        return errs

    def residual_stats(self) -> Tuple[float, float]:
        """(mean, std) of the squared residuals; (0, 0) when unfit.

        Computed once per fit, in ``errs.mean()``/``errs.std()``'s order,
        centring and squaring the squared residuals in place.
        """
        if self._dirty or self._stats is None:
            errs = self.squared_errors()
            n = errs.size
            if n == 0:
                self._stats = (0.0, 0.0)
            else:
                mean = float(np.add.reduce(errs)) / n
                errs -= mean
                errs *= errs
                self._stats = (mean, math.sqrt(float(np.add.reduce(errs)) / n))
        return self._stats

    def points(self) -> "Tuple[List[float], List[float]]":
        """Copies of the recorded (times, offsets)."""
        return (self._times[self._start:self._end].tolist(),
                self._offsets[self._start:self._end].tolist())
