"""Self-tuning (AutoTuner)."""

import numpy as np
import pytest

from repro.core.config import MntpConfig
from repro.tuner.autotune import AutoTuneOptions, AutoTuner, TuneOutcome
from repro.tuner.searcher import SearchSpace
from repro.tuner.traces import OffsetTrace, TraceEntry

SOURCES = ("0.pool.ntp.org", "1.pool.ntp.org", "3.pool.ntp.org")


def _trace(duration=7200.0, cadence=5.0, noise=0.004, seed=0):
    rng = np.random.default_rng(seed)
    trace = OffsetTrace(cadence=cadence)
    t = 0.0
    while t < duration:
        trace.append(TraceEntry(
            time=t, rssi_dbm=-45.0, noise_dbm=-92.0,
            offsets={s: 1e-6 * t + float(rng.normal(0, noise)) for s in SOURCES},
        ))
        t += cadence
    return trace


SPACE = SearchSpace(
    warmup_periods=(300.0, 900.0),
    warmup_wait_times=(5.0, 30.0),
    regular_wait_times=(60.0, 300.0),
    reset_periods=(7200.0,),
)


def test_recommends_cheapest_meeting_target():
    tuner = AutoTuner(space=SPACE, options=AutoTuneOptions(target_rmse_ms=20.0))
    outcome = tuner.tune(_trace())
    assert outcome.recommended is not None
    assert outcome.met_target
    # The recommended config is the cheapest among those meeting target.
    chosen = [r for r in outcome.evaluated if r.config == outcome.recommended]
    assert chosen
    meeting = [r for r in outcome.evaluated if r.rmse_ms <= 20.0]
    assert chosen[0].requests == min(r.requests for r in meeting)


def test_budget_constraint_respected():
    tuner = AutoTuner(
        space=SPACE,
        options=AutoTuneOptions(target_rmse_ms=0.001,  # unreachable
                                max_requests_per_hour=200.0),
    )
    trace = _trace()
    outcome = tuner.tune(trace)
    assert outcome.recommended is not None
    assert not outcome.met_target
    chosen = [r for r in outcome.evaluated if r.config == outcome.recommended][0]
    assert chosen.requests / (trace.duration / 3600.0) <= 200.0


def test_no_viable_config():
    tuner = AutoTuner(
        space=SPACE,
        options=AutoTuneOptions(max_requests_per_hour=0.001),
    )
    outcome = tuner.tune(_trace())
    assert outcome.recommended is None
    assert outcome.evaluated  # still scored everything


def test_pareto_front_is_monotone():
    tuner = AutoTuner(space=SPACE)
    outcome = tuner.tune(_trace())
    front = outcome.pareto
    assert front
    requests = [r.requests for r in front]
    rmses = [r.rmse_ms for r in front]
    assert requests == sorted(requests)
    assert rmses == sorted(rmses, reverse=True)
    # No evaluated config dominates a front member.
    for member in front:
        for other in outcome.evaluated:
            assert not (
                other.requests < member.requests and other.rmse_ms < member.rmse_ms
            )


def test_empty_trace():
    tuner = AutoTuner(space=SPACE)
    outcome = tuner.tune(OffsetTrace())
    assert outcome.recommended is None
