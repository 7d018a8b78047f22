"""Figure-5 phone experiment."""

import pytest

from repro.cellular.phone import CellularExperiment, CellularOptions
from repro.cellular.ran import RanParams


def _short_options(**overrides):
    defaults = dict(duration=900.0, cadence=30.0)
    defaults.update(overrides)
    return CellularOptions(**defaults)


def test_run_collects_offsets():
    result = CellularExperiment(seed=1, options=_short_options()).run()
    assert len(result.offsets) >= 20
    assert result.gps_fixes >= 10


def test_offsets_biased_positive_by_promotion():
    """The uplink promotion inflates T2-T1, so reported offsets have a
    positive bias — Figure 5's mechanism."""
    result = CellularExperiment(seed=1, options=_short_options()).run()
    offsets = [p.offset for p in result.offsets]
    mean = sum(offsets) / len(offsets)
    assert mean > 0.05


def test_gps_keeps_clock_true():
    result = CellularExperiment(seed=1, options=_short_options()).run()
    truths = [abs(p.truth) for p in result.offsets]
    assert max(truths) < 0.05


def test_stats_shape_matches_paper():
    """Full 3 h run: mean ~190 ms, std ~55 ms (paper: 192/55)."""
    result = CellularExperiment(seed=1).run()
    stats = result.stats()
    assert 0.120 < stats.mean_abs < 0.280
    assert 0.030 < stats.std_abs < 0.110
    assert stats.max_abs < 1.5


def test_most_requests_pay_promotion():
    opts = _short_options(cadence=30.0)
    result = CellularExperiment(seed=2, options=opts).run()
    # Cadence 30 s >> inactivity timeout 10 s: every request promotes.
    assert result.promotions >= len(result.offsets)


def test_connected_cadence_avoids_promotions():
    opts = _short_options(cadence=5.0, ran=RanParams(inactivity_timeout=30.0))
    result = CellularExperiment(seed=3, options=opts).run()
    # Radio never goes idle between requests after the first.
    assert result.promotions < len(result.offsets) / 3
    assert result.stats().mean_abs < 0.1


def test_reproducible():
    a = CellularExperiment(seed=9, options=_short_options()).run()
    b = CellularExperiment(seed=9, options=_short_options()).run()
    assert [p.offset for p in a.offsets] == [p.offset for p in b.offsets]
