"""Trace logger and parameter searcher."""

import math

import pytest

from repro.core.config import MntpConfig
from repro.simcore.simulator import Simulator
from repro.testbed.nodes import Testbed, TestbedOptions
from repro.tuner import logger as logger_module
from repro.tuner.logger import LoggerOptions, TraceLogger
from repro.tuner.searcher import ParameterSearcher, SearchSpace
from repro.tuner.traces import OffsetTrace, TraceEntry


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


# -- the logger's own run --------------------------------------------------


def _completion_order_trace(seed, options):
    """``TraceLogger.run`` as it was before entries queued in sampling
    order: telemetry on, each entry appended when its last query ends."""
    sim = Simulator(seed=seed)
    testbed = Testbed(sim, options.testbed)
    trace = OffsetTrace(cadence=options.cadence)

    def sample():
        if sim.now >= options.duration:
            return
        hints = testbed.hints.read_hints()
        entry = TraceEntry(time=sim.now, rssi_dbm=hints.rssi_dbm, noise_dbm=hints.noise_dbm,
                           true_offset=testbed.tn_clock.true_offset())
        outstanding = {"count": len(options.sources)}
        results = {}

        def make_cb(source):
            def on_result(result):
                results[source] = result.sample.offset if result.ok else None
                outstanding["count"] -= 1
                if outstanding["count"] == 0:
                    entry.offsets = dict(results)
                    trace.append(entry)
            return on_result

        for source in options.sources:
            testbed.mntp_app.query(source, make_cb(source), timeout=2.0)
        sim.call_after(options.cadence, sample, label="tuner:sample")

    testbed.start_background()
    sim.call_after(0.0, sample, label="tuner:sample")
    sim.run_until(options.duration + 5.0)
    testbed.stop_background()
    return trace


def test_logger_at_paper_cadence_matches_completion_order(short_trace):
    """At 5 s every instant's queries end (2 s timeout) before the next
    instant, so sampling order is the order entries used to complete in."""
    options = LoggerOptions(duration=1800.0, cadence=5.0,
                            testbed=TestbedOptions(wireless=True, ntp_correction=False))
    assert short_trace.entries == _completion_order_trace(4, options).entries


def test_logger_below_query_timeout_keeps_sampling_order():
    """At a cadence below the query timeout an instant can finish after
    the next one; the trace still holds one entry per instant, in order."""
    options = LoggerOptions(duration=300.0, cadence=1.0)
    trace = TraceLogger(seed=4, options=options).run()
    assert [e.time for e in trace] == [float(i) for i in range(300)]
    assert all(set(e.offsets) == set(options.sources) for e in trace)


class _Instrumented(Simulator):
    """A simulator with telemetry on whatever its caller asks for."""

    def __init__(self, seed=0, instrument=True):
        super().__init__(seed=seed, instrument=True)


@pytest.mark.parametrize("seed", [1000, 1001])
def test_logged_trace_is_the_same_with_telemetry_on(monkeypatch, seed):
    options = LoggerOptions(duration=1800.0)
    uninstrumented = TraceLogger(seed=seed, options=options).run()
    monkeypatch.setattr(logger_module, "Simulator", _Instrumented)
    instrumented = TraceLogger(seed=seed, options=options).run()
    assert len(uninstrumented) == 360
    assert uninstrumented.entries == instrumented.entries


def test_logger_simulation_runs_without_telemetry(monkeypatch):
    built = []

    class Recording(Simulator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(logger_module, "Simulator", Recording)
    TraceLogger(seed=1, options=LoggerOptions(duration=60.0)).run()
    assert len(built) == 1
    snapshot = built[0].telemetry.snapshot()
    assert not built[0].telemetry.enabled
    assert snapshot["records"] == []


@pytest.mark.parametrize("name", ["duration", "cadence"])
@pytest.mark.parametrize("value", [0.0, -5.0, math.nan, math.inf])
def test_logger_options_reject_bad_duration_and_cadence(name, value):
    with pytest.raises(ValueError, match=name):
        LoggerOptions(**{name: value})


def test_logger_options_reject_no_sources():
    with pytest.raises(ValueError, match="sources"):
        LoggerOptions(sources=())
