"""One grid replay gives every configuration its own replay's result.

:func:`repro.tuner.emulator.replay_grid` shares a warm-up among the
configurations that replay it identically and splits where they
diverge.  These tests check the split against per-configuration
replays: the result of every configuration must compare equal, and a
grid search must produce the same rows and the same telemetry as the
per-configuration loop it replaces.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.config import HintThresholds, MntpConfig
from repro.core.falsetickers import reject_false_tickers
from repro.core.filter import OffsetFilter
from repro.core.thresholds import favorable_snr_condition
from repro.obs.exporters import jsonl_lines
from repro.obs.telemetry import Telemetry
from repro.tuner.emulator import EmulationResult, MntpEmulator, replay_grid
from repro.tuner.searcher import ParameterSearcher, SearchSpace
from repro.tuner.traces import OffsetTrace, TraceEntry

GOOD = dict(rssi_dbm=-45.0, noise_dbm=-92.0)
BAD = dict(rssi_dbm=-85.0, noise_dbm=-60.0)
POOLS = ("0.pool.ntp.org", "1.pool.ntp.org", "3.pool.ntp.org")
OTHER = "time.example.org"  # answers, but is in no warm-up pool

# -- generators ---------------------------------------------------------------

_offset = st.one_of(
    st.none(),
    st.floats(-0.05, 0.05),
    st.floats(0.3, 0.6),  # a spike well outside the filter gate
)

_entry = st.tuples(
    st.sampled_from([0.0, 1.0, 5.0, 5.0, 5.0, 5.0, 12.5, 60.0, 400.0]),  # gap
    st.booleans(),  # hints fail the gate for this stretch
    st.integers(1, 6),  # stretch length
    st.dictionaries(st.sampled_from(POOLS + (OTHER,)), _offset, max_size=4),
)


@st.composite
def traces(draw):
    """Synthetic traces: gaps, ``None`` offsets, missing and foreign
    sources, stretches whose hints fail the gate, and the empty trace."""
    trace = OffsetTrace()
    time = draw(st.sampled_from([0.0, 1000.0]))
    drift = draw(st.sampled_from([0.0, 2e-6, -5e-5]))
    for gap, bad, length, offsets in draw(st.lists(_entry, max_size=40)):
        for k in range(length):
            time += gap if k == 0 else 5.0
            trace.append(TraceEntry(
                time=time,
                offsets={s: None if v is None else v + drift * time
                         for s, v in offsets.items()},
                **(BAD if bad else GOOD),
            ))
    return trace


_periods = st.lists(st.sampled_from([30.0, 60.0, 90.0, 150.0, 300.0, 900.0, 1e9]),
                    min_size=1, max_size=3)
_waits = st.lists(st.sampled_from([1.0, 5.0, 7.5, 15.0, 60.0]), min_size=1, max_size=3)
_resets = st.lists(st.sampled_from([60.0, 200.0, 500.0, 1e9]), min_size=1, max_size=2)

_base = st.builds(
    MntpConfig,
    min_warmup_samples=st.integers(2, 5),
    filter_gate_floor=st.sampled_from([0.0, 0.001, 0.010]),
    max_consecutive_rejections=st.integers(1, 4),
    enable_filter=st.booleans(),
    reestimate_every_sample=st.booleans(),
    two_sided_rejection=st.booleans(),
    enable_hint_gate=st.booleans(),
    thresholds=st.sampled_from([HintThresholds(), HintThresholds(min_rssi_dbm=-90.0)]),
)


_VARIANTS = st.sampled_from([
    {}, {"enable_filter": False}, {"reestimate_every_sample": False},
    {"two_sided_rejection": True}, {"enable_hint_gate": False},
    {"min_warmup_samples": 3}, {"filter_gate_floor": 0.0},
    {"regular_source": "1.pool.ntp.org"}, {"warmup_pools": POOLS[:1]},
])


@st.composite
def config_lists(draw):
    """Configurations over a random grid (duplicate values, resets
    inside the trace, ``wp > rp`` skips), each built on one of two
    bases that differ in at most one field outside the grid."""
    base = draw(_base)
    bases = [base, base.with_overrides(**draw(_VARIANTS))]
    space = SearchSpace(draw(_periods), draw(_waits), draw(_waits), draw(_resets))
    configs = [
        draw(st.sampled_from(bases)).with_overrides(
            warmup_period=wp, warmup_wait_time=ww,
            regular_wait_time=rw, reset_period=rp,
        )
        for wp, ww, rw, rp in space.combinations()
    ]
    return draw(st.permutations(configs))


# -- reference: Algorithm 1 replayed one configuration at a time ------------


def reference_run(trace, cfg):
    """The per-configuration replay loop :func:`replay_grid` replaces."""
    result = EmulationResult()
    fil = OffsetFilter(
        min_samples=cfg.min_warmup_samples,
        gate_floor=cfg.filter_gate_floor,
        max_consecutive_rejections=cfg.max_consecutive_rejections,
        two_sided=cfg.two_sided_rejection,
        reestimate_every_sample=cfg.reestimate_every_sample,
    )
    entries = list(trace)
    if not entries:
        return result

    def offer(time, offset):
        if not cfg.enable_filter:
            fil.trend.add(time, offset)
            result.raw_accepted.append((time, offset))
            predicted = fil.trend.predict(time)
            if predicted is not None:
                result.reported.append((time, offset - predicted))
            return
        outcome = fil.offer(time, offset)
        if outcome.decision.accepted:
            result.raw_accepted.append((time, offset))
            if outcome.predicted == outcome.predicted:
                result.reported.append((time, offset - outcome.predicted))
        else:
            result.rejected.append((time, offset))

    phase = "warmup"
    phase_start = algorithm_start = next_action = entries[0].time
    for entry in entries:
        if entry.time < next_action:
            continue
        if entry.time - algorithm_start >= cfg.reset_period:
            fil.reset()
            phase, phase_start, algorithm_start = "warmup", entry.time, entry.time
            result.resets += 1
        if phase == "warmup" and entry.time - phase_start >= cfg.warmup_period:
            phase, phase_start = "regular", entry.time
            result.warmup_completions += 1
        if cfg.enable_hint_gate and not favorable_snr_condition(
            entry.hints, cfg.thresholds
        ):
            result.deferred += 1
            continue
        if phase == "warmup":
            offsets = {s: v for s, v in entry.offsets.items()
                       if s in cfg.warmup_pools and v is not None}
            result.requests += len([s for s in entry.offsets if s in cfg.warmup_pools])
            if offsets:
                offer(entry.time, reject_false_tickers(offsets).combined_offset)
            next_action = entry.time + cfg.warmup_wait_time
        else:
            value = entry.offsets.get(cfg.regular_source)
            if value is None and entry.offsets:
                value = next((v for v in entry.offsets.values() if v is not None), None)
            result.requests += 1
            if value is not None:
                offer(entry.time, value)
            next_action = entry.time + cfg.regular_wait_time
    return result


# -- properties -----------------------------------------------------------------


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(trace=traces(), configs=config_lists())
def test_grid_replay_equals_per_config_replay(trace, configs):
    grid = replay_grid(trace, configs)
    assert len(grid) == len(configs)
    for cfg, result in zip(configs, grid):
        assert result == MntpEmulator(trace, cfg).run()
        assert result == reference_run(trace, cfg)
    # Every configuration owns its result, even where two never diverged.
    assert len({id(result) for result in grid}) == len(grid)


@pytest.mark.parametrize("variant", [
    {"enable_filter": False}, {"reestimate_every_sample": False},
    {"filter_gate_floor": 0.0}, {"enable_hint_gate": False},
    {"min_warmup_samples": 4}, {"max_consecutive_rejections": 1},
    {"regular_source": "1.pool.ntp.org"}, {"warmup_pools": POOLS[:1]},
])
def test_grid_replay_groups_by_every_field_outside_the_grid(variant):
    """Configurations with the same swept values but another toggle,
    filter setting or pool replay apart, whatever their order."""
    base = MntpConfig(warmup_period=300.0, warmup_wait_time=5.0,
                      regular_wait_time=30.0, reset_period=1200.0)
    configs = [base, base.with_overrides(**variant)]
    trace = _trace(spike_every=9)
    for ordered in (configs, configs[::-1]):
        grid = replay_grid(trace, ordered)
        assert grid == [MntpEmulator(trace, cfg).run() for cfg in ordered]
        assert grid[0] != grid[1]


def test_grid_replay_of_no_configs_is_empty():
    assert replay_grid(OffsetTrace(), []) == []


def _trace(duration=1800.0, seed=0, spike_every=None):
    """Drift plus noise at a 5-s cadence; hints fail from 600 to 700 s,
    and every ``spike_every``-th value of a source jumps by 0.4 s."""
    rng = np.random.default_rng(seed)
    trace = OffsetTrace()
    t = 0.0
    i = 0
    while t < duration:
        bad = 600.0 <= t < 700.0
        offsets = {}
        for k, s in enumerate(POOLS):
            spike = spike_every and (i + k) % spike_every == 0
            offsets[s] = 3e-6 * t + float(rng.normal(0, 0.003)) + (0.4 if spike else 0.0)
        trace.append(TraceEntry(time=t, offsets=offsets, **(BAD if bad else GOOD)))
        t += 5.0
        i += 1
    return trace


_SPACE = SearchSpace(
    warmup_periods=(120.0, 300.0, 900.0, 2400.0),
    warmup_wait_times=(5.0, 15.0, 60.0),
    regular_wait_times=(30.0, 60.0),
    reset_periods=(600.0, 2400.0),
)


def test_configurations_share_the_warm_up_they_replay_alike(monkeypatch):
    """Two configurations that differ only in the regular wait replay
    their common warm-up once, and their regular phases apart."""
    trace = _trace()
    offers = []
    original = OffsetFilter.offer

    def counted(self, time, offset):
        offers.append(time)
        return original(self, time, offset)

    monkeypatch.setattr(OffsetFilter, "offer", counted)
    configs = [MntpConfig(warmup_period=900.0, warmup_wait_time=5.0,
                          regular_wait_time=rw, reset_period=2400.0)
               for rw in (30.0, 60.0)]
    replay_grid(trace, configs)
    warmup = [t for t in offers if t < 900.0]
    regular = [t for t in offers if t >= 900.0]
    assert warmup and len(set(warmup)) == len(warmup)
    assert len(regular) == 900 // 30 + 900 // 60
    offers.clear()
    for cfg in configs:
        MntpEmulator(trace, cfg).run()
    assert sorted(offers) == sorted(warmup * 2 + regular)


def _reference_search(trace, space, telemetry):
    """:meth:`ParameterSearcher.search` as a per-configuration loop."""
    searcher = ParameterSearcher(trace, space=space, telemetry=telemetry)
    results = [
        searcher.evaluate(searcher.base_config.with_overrides(
            warmup_period=wp, warmup_wait_time=ww,
            regular_wait_time=rw, reset_period=rp))
        for wp, ww, rw, rp in space.combinations()
    ]
    results.sort(key=lambda r: (r.reported_count == 0, r.rmse_ms))
    return results


def test_search_telemetry_and_rows_match_per_config_loop():
    trace = _trace()
    grid_telemetry = Telemetry.standalone()
    loop_telemetry = Telemetry.standalone()
    grid = ParameterSearcher(trace, space=_SPACE, telemetry=grid_telemetry).search()
    loop = _reference_search(trace, _SPACE, loop_telemetry)
    assert [r.row() + (r.reported_count,) for r in grid] == \
        [r.row() + (r.reported_count,) for r in loop]
    assert [r.config for r in grid] == [r.config for r in loop]
    assert list(jsonl_lines(grid_telemetry.snapshot())) == \
        list(jsonl_lines(loop_telemetry.snapshot()))
    evals = [r for r in grid_telemetry.snapshot()["records"] if r.kind == "tuner.eval"]
    assert len(evals) == len(_SPACE.combinations())


def test_configurations_without_reports_rank_last():
    """``rmse([])`` is 0.0, so a configuration that reported nothing
    used to rank best.  A 200-s warm-up wait never bootstraps here."""
    trace = _trace(duration=600.0)
    space = SearchSpace(
        warmup_periods=(3000.0,), warmup_wait_times=(200.0, 5.0),
        regular_wait_times=(60.0,), reset_periods=(3000.0,),
    )
    results = ParameterSearcher(trace, space=space).search()
    assert [r.config.warmup_wait_time for r in results] == [5.0, 200.0]
    assert results[0].reported_count > 0 and results[0].rmse_ms > 0.0
    assert results[1].reported_count == 0 and results[1].rmse_ms == 0.0


def test_search_order_unchanged_when_every_configuration_reports():
    space = SearchSpace(
        warmup_periods=(120.0, 300.0, 900.0), warmup_wait_times=(5.0, 15.0),
        regular_wait_times=(30.0, 60.0), reset_periods=(2400.0,),
    )
    results = ParameterSearcher(_trace(), space=space).search()
    assert all(r.reported_count for r in results)
    rmses = [r.rmse_ms for r in results]
    assert rmses == sorted(rmses)
