"""Trace logger and parameter searcher."""

import pytest

from repro.core.config import MntpConfig
from repro.testbed.nodes import TestbedOptions
from repro.tuner.logger import LoggerOptions, TraceLogger
from repro.tuner.searcher import ParameterSearcher, SearchSpace


@pytest.fixture(scope="module")
def short_trace():
    options = LoggerOptions(
        duration=1800.0,
        cadence=5.0,
        testbed=TestbedOptions(wireless=True, ntp_correction=False),
    )
    return TraceLogger(seed=4, options=options).run()


def test_logger_records_cadence(short_trace):
    assert len(short_trace) == pytest.approx(360, abs=5)
    times = [e.time for e in short_trace]
    gaps = [b - a for a, b in zip(times, times[1:])]
    assert all(g == pytest.approx(5.0, abs=0.01) for g in gaps)


def test_logger_records_three_sources(short_trace):
    for entry in short_trace.entries[:20]:
        assert set(entry.offsets) == {
            "0.pool.ntp.org", "1.pool.ntp.org", "3.pool.ntp.org",
        }


def test_logger_records_hints_and_truth(short_trace):
    entry = short_trace.entries[0]
    assert -120 < entry.rssi_dbm < 0
    assert -120 < entry.noise_dbm < 0
    assert entry.true_offset is not None


def test_logger_some_queries_fail_on_wireless(short_trace):
    failures = sum(
        1 for e in short_trace for v in e.offsets.values() if v is None
    )
    assert failures > 0  # lossy channel must lose some


def test_search_space_combinations():
    space = SearchSpace(
        warmup_periods=(600.0, 1200.0),
        warmup_wait_times=(5.0,),
        regular_wait_times=(60.0,),
        reset_periods=(900.0,),
    )
    combos = space.combinations()
    # warmup 1200 > reset 900 is skipped.
    assert combos == [(600.0, 5.0, 60.0, 900.0)]


def test_searcher_sorts_by_rmse(short_trace):
    space = SearchSpace(
        warmup_periods=(300.0, 900.0),
        warmup_wait_times=(5.0, 15.0),
        regular_wait_times=(60.0,),
        reset_periods=(1800.0,),
    )
    results = ParameterSearcher(short_trace, space=space).search()
    assert len(results) == 4
    # A configuration that reported nothing has no RMSE to rank by (it
    # reads 0.0); it sorts after every configuration that reported.
    keys = [(r.reported_count == 0, r.rmse_ms) for r in results]
    assert keys == sorted(keys)
    assert all(r.requests > 0 for r in results)


def test_evaluate_single_config(short_trace):
    config = MntpConfig(
        warmup_period=300.0, warmup_wait_time=5.0,
        regular_wait_time=60.0, reset_period=1800.0,
    )
    result = ParameterSearcher(short_trace).evaluate(config)
    assert result.rmse_ms >= 0.0
    row = result.row()
    assert row[0] == pytest.approx(5.0)  # warmup period in minutes
    assert row[4] == result.rmse_ms
