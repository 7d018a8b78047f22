"""Warm-up false-ticker rejection."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.falsetickers import FalseTickerVerdict, reject_false_tickers
from tests.core.parity import HINT, same


def test_empty_rejected():
    with pytest.raises(ValueError):
        reject_false_tickers({})


def test_single_source_accepted_as_is():
    verdict = reject_false_tickers({"a": 0.5})
    assert verdict.accepted == {"a": 0.5}
    assert verdict.rejected == []
    assert verdict.combined_offset == 0.5


def test_obvious_outlier_rejected():
    verdict = reject_false_tickers({"a": 0.001, "b": 0.002, "liar": 0.400})
    assert "liar" in verdict.rejected
    assert set(verdict.accepted) == {"a", "b"}
    assert verdict.combined_offset == pytest.approx(0.0015)


def test_negative_outlier_rejected_too():
    verdict = reject_false_tickers({"a": 0.001, "b": 0.002, "liar": -0.400})
    assert "liar" in verdict.rejected


def test_identical_offsets_all_accepted():
    verdict = reject_false_tickers({"a": 0.01, "b": 0.01, "c": 0.01})
    assert verdict.rejected == []
    assert verdict.combined_offset == pytest.approx(0.01)


def test_never_rejects_everything():
    # Two sources exactly 1 sigma apart in a symmetric pair: the rule
    # could fire on both; the guard keeps the population.
    verdict = reject_false_tickers({"a": -1.0, "b": 1.0})
    assert verdict.accepted


def test_combined_is_mean_of_survivors():
    verdict = reject_false_tickers({"a": 0.0, "b": 0.002, "c": 0.004, "liar": 1.0})
    assert verdict.combined_offset == pytest.approx(
        sum(verdict.accepted.values()) / len(verdict.accepted)
    )


@given(
    st.dictionaries(
        st.text(min_size=1, max_size=4),
        st.floats(-1.0, 1.0),
        min_size=1,
        max_size=8,
    )
)
def test_invariants_property(offsets):
    verdict = reject_false_tickers(offsets)
    assert set(verdict.accepted) | set(verdict.rejected) == set(offsets)
    assert set(verdict.accepted) & set(verdict.rejected) == set()
    assert verdict.accepted  # never empty
    lo, hi = min(offsets.values()), max(offsets.values())
    assert lo - 1e-9 <= verdict.combined_offset <= hi + 1e-9


# -- bit equality with the numpy formulas -------------------------------------


def _reference(offsets_by_source):
    """The vote as it was computed with ``np.mean``/``np.std``."""
    if len(offsets_by_source) == 1:
        ((source, offset),) = offsets_by_source.items()
        return FalseTickerVerdict({source: offset}, [], offset)
    values = np.asarray(list(offsets_by_source.values()))
    mean = float(values.mean())
    std = float(values.std())
    accepted, rejected = {}, []
    for source, offset in offsets_by_source.items():
        if std > 0 and abs(offset - mean) > std:
            rejected.append(source)
        else:
            accepted[source] = offset
    if not accepted:
        accepted, rejected = dict(offsets_by_source), []
    return FalseTickerVerdict(accepted, rejected, float(np.mean(list(accepted.values()))))


def _assert_same_verdict(offsets):
    got, want = reject_false_tickers(offsets), _reference(offsets)
    assert got.rejected == want.rejected, HINT
    assert got.accepted == want.accepted, HINT
    assert same(got.combined_offset, want.combined_offset), (
        f"{got.combined_offset!r} vs {want.combined_offset!r} {HINT}")


@st.composite
def _populations(draw):
    """Up to 300 offsets of one magnitude: spread, all equal, or mostly
    signed zeros.  A seeded stream fills them, so shrinking stays cheap."""
    n = draw(st.integers(1, 300))
    magnitude = draw(st.sampled_from([1e-9, 1e-6, 1e-3, 1.0, 1e3]))
    shape = draw(st.sampled_from(["spread", "equal", "zeros"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if shape == "zeros":
        values = rng.choice([0.0, -0.0, -0.0, magnitude], n)
    else:
        values = rng.uniform(-1.0, 1.0, n) * magnitude
        if shape == "equal":
            values[:] = draw(st.sampled_from([0.0, -0.0, values[0]]))
    return {f"s{i}": v for i, v in enumerate(values.tolist())}


@settings(max_examples=200, deadline=None)
@given(_populations())
def test_bit_equal_to_numpy_formulas(offsets):
    _assert_same_verdict(offsets)


def test_bit_equal_to_numpy_formulas_at_every_size():
    """Every population size across numpy's 8-accumulator and 128-value
    block boundaries, with a few false tickers each."""
    rng = np.random.default_rng(5)
    for n in range(1, 301):
        values = rng.normal(0.0, 1e-3, n)
        values[rng.integers(0, n, max(1, n // 10))] += 0.4
        _assert_same_verdict({f"s{i}": float(v) for i, v in enumerate(values)})
