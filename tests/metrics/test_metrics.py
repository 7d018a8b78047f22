"""Statistics helpers."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.metrics.distributions import iqr, quantile
from repro.metrics.stats import rmse


def test_rmse_known():
    assert rmse([3.0, -4.0]) == pytest.approx(math.sqrt(12.5))
    assert rmse([]) == 0.0
    assert rmse([5.0, 5.0], target=5.0) == 0.0


@given(st.lists(st.floats(-100, 100), min_size=1, max_size=50))
def test_rmse_nonnegative_property(values):
    assert rmse(values) >= 0.0


def test_quantile_and_iqr():
    values = list(range(101))
    assert quantile(values, 0.5) == pytest.approx(50.0)
    assert iqr(values) == pytest.approx(50.0)
    assert quantile([], 0.5) == 0.0
    with pytest.raises(ValueError):
        quantile(values, 1.5)
