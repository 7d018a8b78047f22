"""TrendLine fitting."""

import copy
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import repro.core.trend as trend_module
from repro.core.trend import TrendLine
from tests.core.parity import HINT, same, same_array


def test_unfit_with_fewer_than_two_points():
    t = TrendLine()
    assert t.slope is None
    assert t.predict(10.0) is None
    t.add(0.0, 1.0)
    assert t.slope is None


def test_exact_line_recovered():
    t = TrendLine()
    for x in range(10):
        t.add(float(x), 2.0 + 0.5 * x)
    assert t.slope == pytest.approx(0.5)
    assert t.predict(20.0) == pytest.approx(12.0)


def test_residual_stats_zero_on_exact_fit():
    t = TrendLine()
    for x in range(5):
        t.add(float(x), 3.0 * x)
    mean, std = t.residual_stats()
    assert mean == pytest.approx(0.0, abs=1e-12)
    assert std == pytest.approx(0.0, abs=1e-12)


def test_residuals_reflect_noise():
    rng = np.random.default_rng(0)
    t = TrendLine()
    for x in range(100):
        t.add(float(x), 0.001 * x + float(rng.normal(0, 0.01)))
    mean, std = t.residual_stats()
    assert mean == pytest.approx(0.0001, rel=0.5)  # E[resid^2] ~ 1e-4


def test_matches_numpy_polyfit():
    rng = np.random.default_rng(1)
    xs = np.sort(rng.uniform(0, 1000, 50))
    ys = rng.normal(0, 1, 50)
    t = TrendLine()
    for x, y in zip(xs, ys):
        t.add(float(x), float(y))
    t0 = xs.mean()
    slope_np, intercept_c = np.polyfit(xs - t0, ys, 1)
    assert t.slope == slope_np, HINT
    assert t.predict(0.0) == slope_np * 0.0 + (intercept_c - slope_np * t0), HINT


def test_large_epoch_numerically_stable():
    """Fits at epoch ~1.46e9 (the trace epoch) must not lose precision."""
    t = TrendLine()
    t0 = 1_460_000_000.0
    for x in range(20):
        t.add(t0 + x * 5.0, 0.001 + 1e-6 * x * 5.0)
    assert t.slope == pytest.approx(1e-6, rel=1e-3)
    assert t.predict(t0 + 200.0) == pytest.approx(0.001 + 2e-4, rel=1e-3)


def test_window_bounds_memory():
    t = TrendLine(max_points=10)
    for x in range(100):
        t.add(float(x), float(x))
    assert len(t) == 10
    times, _ = t.points()
    assert times[0] == 90.0


def test_same_time_points_are_unfit():
    """Points that span no time fit no line (polyfit divides 0/0)."""
    t = TrendLine()
    for i in range(10):
        t.add(5.0, 0.001 * i)
    assert t.slope is None
    assert t.predict(6.0) is None
    assert t.residual_stats() == (0.0, 0.0)
    assert t.squared_errors().size == 0
    t.add(6.0, 0.0)
    assert t.slope is not None


def test_unconverged_solve_is_unfit(monkeypatch):
    """LAPACK's SVD can fail to converge (offsets at subnormal scale);
    the line then reports itself unfit instead of raising out of a run."""
    t = TrendLine()
    for x in range(5):
        t.add(float(x), 0.001 * x)

    def no_convergence(a, b, rcond, signature):
        # The gufunc signals an unconverged SVD the way LAPACK's wrapper
        # does: it raises the invalid floating-point flag, which the
        # fit's error state turns into LinAlgError.
        np.multiply(np.inf, 0.0)
        return np.full((2, 1), np.nan), np.full(1, np.nan), np.int32(2), np.full(2, np.nan)

    monkeypatch.setattr(trend_module, "_lapack_lstsq", no_convergence)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert t.slope is None
        assert t.predict(6.0) is None
        assert t.residual_stats() == (0.0, 0.0)
        assert t.squared_errors().size == 0
    monkeypatch.undo()
    t.add(5.0, 0.005)
    assert t.slope == pytest.approx(0.001)


def test_residual_stats_cached_until_the_points_change():
    t = TrendLine()
    for x in range(5):
        t.add(float(x), float(x % 2))
    stats = t.residual_stats()
    assert t.residual_stats() is stats
    t.add(5.0, 1.0)
    assert t.residual_stats() is not stats
    t.clear()
    assert t.residual_stats() == (0.0, 0.0)


def test_clear():
    t = TrendLine()
    t.add(0.0, 1.0)
    t.add(1.0, 2.0)
    t.clear()
    assert len(t) == 0
    assert t.slope is None


def test_min_window_size_rejected():
    with pytest.raises(ValueError):
        TrendLine(max_points=1)


def test_refit_after_add():
    t = TrendLine()
    t.add(0.0, 0.0)
    t.add(1.0, 1.0)
    assert t.slope == pytest.approx(1.0)
    t.add(2.0, 4.0)  # bends the fit upward
    assert t.slope == pytest.approx(2.0)


@given(
    slope=st.floats(-1e-3, 1e-3),
    intercept=st.floats(-1.0, 1.0),
    n=st.integers(3, 40),
)
def test_noiseless_line_property(slope, intercept, n):
    t = TrendLine()
    for i in range(n):
        x = i * 7.0
        t.add(x, intercept + slope * x)
    assert t.slope == pytest.approx(slope, abs=1e-9)


# -- bit equality with the list + np.polyfit implementation ------------------


class _ReferenceTrendLine:
    """The TrendLine the numpy-order fit replaced: Python lists, converted
    on every call, fitted by ``np.polyfit``."""

    def __init__(self, max_points):
        self._times = []
        self._offsets = []
        self._max_points = max_points
        self._coeffs = None
        self._dirty = True

    def add(self, time, offset):
        self._times.append(float(time))
        self._offsets.append(float(offset))
        if len(self._times) > self._max_points:
            self._times.pop(0)
            self._offsets.pop(0)
        self._dirty = True

    def clear(self):
        self._times.clear()
        self._offsets.clear()
        self._coeffs = None
        self._dirty = True

    def _fit(self):
        if self._dirty:
            if len(self._times) < 2:
                self._coeffs = None
            else:
                t = np.asarray(self._times)
                o = np.asarray(self._offsets)
                t0 = t.mean()
                slope, intercept_c = np.polyfit(t - t0, o, 1)
                self._coeffs = (float(slope), float(intercept_c - slope * t0))
            self._dirty = False
        return self._coeffs

    @property
    def slope(self):
        coeffs = self._fit()
        return None if coeffs is None else coeffs[0]

    def predict(self, time):
        coeffs = self._fit()
        if coeffs is None:
            return None
        slope, intercept = coeffs
        return slope * time + intercept

    def squared_errors(self):
        coeffs = self._fit()
        if coeffs is None or not self._times:
            return np.asarray([])
        slope, intercept = coeffs
        t = np.asarray(self._times)
        o = np.asarray(self._offsets)
        resid = o - (slope * t + intercept)
        return resid**2

    def residual_stats(self):
        errs = self.squared_errors()
        if errs.size == 0:
            return 0.0, 0.0
        return float(errs.mean()), float(errs.std())


_QUERIES = ("slope", "predict", "squared_errors", "residual_stats")


def _query(line, name, at):
    """Read one accessor, with the warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if name == "slope":
            value = line.slope
        elif name == "predict":
            value = line.predict(at)
        elif name == "squared_errors":
            value = line.squared_errors()
        else:
            value = line.residual_stats()
    return value, [w.category for w in caught]


def _same_value(name, a, b):
    if name == "squared_errors":
        return same_array(a, b)
    if name == "residual_stats":
        return same(a[0], b[0]) and same(a[1], b[1])
    return same(a, b)


_UNFIT = {"slope": None, "predict": None, "squared_errors": np.asarray([]),
          "residual_stats": (0.0, 0.0)}

_offsets = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(-1e-6, 1e-6),
    st.floats(-1e3, 1e3),
)
_ops = st.one_of(
    # Whole steps collide; fractional ones make inexact sums.
    st.tuples(st.just("add"), st.integers(-4, 20),
              st.one_of(st.just(0.0), st.floats(0.0, 1.0)), _offsets),
    # Enough points for numpy's 8-accumulator and 128-block sums.
    st.tuples(st.just("burst"), st.integers(0, 2**32 - 1), st.integers(1, 300)),
    st.tuples(st.just("clear")),
    st.tuples(st.just("copy")),
)


def _burst(seed, count, epoch, step):
    """``count`` noisy points on a drifting line, at rising times."""
    rng = np.random.default_rng(seed)
    times = epoch + step * np.cumsum(rng.uniform(0.5, 1.5, count))
    offsets = 1e-5 * (times - epoch) + rng.normal(0.0, 1e-3, count)
    return list(zip(times.tolist(), offsets.tolist()))


@settings(max_examples=150, deadline=None)
@given(
    max_points=st.one_of(st.integers(2, 12), st.integers(100, 400)),
    epoch=st.sampled_from([0.0, 1.46e9]),
    step=st.sampled_from([1e-9, 1e-7, 1e-3, 0.1, 5.0, 1e3]),
    ops=st.lists(_ops, max_size=40),
    orders=st.lists(st.permutations(_QUERIES), min_size=1, max_size=3),
)
# Three points at 0.1 s: their mean is inexact, so polyfit's centred
# times are equal and nonzero and it fits a rank-deficient, huge slope.
@example(max_points=4, epoch=0.0, step=0.1, ops=[("add", 1, 0.0, 0.5)] * 3,
         orders=[_QUERIES])
# A copy of a reference that already fitted points spanning no time.
@example(max_points=3, epoch=1.46e9, step=1e-7,
         ops=[("add", 0, 0.0, 0.0), ("burst", 0, 52), ("copy",)],
         orders=[_QUERIES])
def test_bit_equal_to_list_polyfit_reference(max_points, epoch, step, ops, orders):
    """Every accessor returns the reference's exact floats after every
    change.  Points spanning no time (integer steps collide, or vanish
    below the epoch's resolution) are where the reference fails: it
    raises LinAlgError or warns a rank-deficient fit, and the line
    reports itself unfit instead.  So does a reference whose SVD does
    not converge."""
    line, ref = TrendLine(max_points), _ReferenceTrendLine(max_points)
    for number, op in enumerate(ops):
        if op[0] in ("add", "burst"):
            points = (_burst(op[1], op[2], epoch, step) if op[0] == "burst"
                      else [(epoch + (op[1] + op[2]) * step, op[3])])
            for time, offset in points:
                line.add(time, offset)
                ref.add(time, offset)
        elif op[0] == "clear":
            line.clear()
            ref.clear()
        else:  # the grid replay forks filters with deepcopy
            line, ref = copy.deepcopy(line), copy.deepcopy(ref)
        assert len(line) == len(ref._times)
        assert line.points() == (ref._times, ref._offsets)
        at = epoch + (number - 2) * step
        spans_time = len(set(ref._times)) >= 2
        for name in orders[number % len(orders)]:
            got, got_warnings = _query(line, name, at)
            if spans_time:
                try:
                    want, want_warnings = _query(ref, name, at)
                except np.linalg.LinAlgError:
                    # The SVD did not converge: the line is unfit.
                    want, want_warnings = _UNFIT[name], []
                assert got_warnings == want_warnings, HINT
            else:
                want = _UNFIT[name]
                assert got_warnings == []
            assert _same_value(name, got, want), f"{name}: {got!r} vs {want!r} {HINT}"
        if len(ref._times) >= 2 and not spans_time:
            # A fresh reference fits anew: ``ref`` may hold a cached fit
            # (after a copy), which raises and warns nothing again.
            fresh = _ReferenceTrendLine(max_points)
            for time, offset in zip(ref._times, ref._offsets):
                fresh.add(time, offset)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    fresh.slope
                except np.linalg.LinAlgError:
                    continue
            assert np.exceptions.RankWarning in [w.category for w in caught]
