"""The MNTP offset filter."""

import numpy as np
import pytest

from repro.core.filter import FilterDecision, OffsetFilter


def _bootstrap(fil, n=10, slope=0.0, noise=0.0, rng=None, start=0.0, dt=5.0):
    rng = rng or np.random.default_rng(0)
    t = start
    for _ in range(n):
        fil.offer(t, slope * t + float(rng.normal(0, noise)))
        t += dt
    return t


def test_bootstrap_accepts_everything():
    fil = OffsetFilter(min_samples=5)
    for i in range(5):
        outcome = fil.offer(float(i), 100.0 * i)  # wild values
        assert outcome.decision == FilterDecision.ACCEPT_BOOTSTRAP
    assert fil.bootstrapped


def test_on_trend_sample_accepted():
    fil = OffsetFilter(min_samples=10)
    t = _bootstrap(fil, slope=1e-5, noise=0.001)
    outcome = fil.offer(t, 1e-5 * t)
    assert outcome.decision == FilterDecision.ACCEPT


def test_spike_rejected():
    fil = OffsetFilter(min_samples=10)
    t = _bootstrap(fil, slope=1e-5, noise=0.001)
    outcome = fil.offer(t, 1e-5 * t + 0.5)  # 500 ms spike
    assert outcome.decision == FilterDecision.REJECT_HIGH_ERROR
    assert not outcome.decision.accepted
    assert outcome.squared_error > outcome.gate


def test_rejected_sample_not_recorded():
    fil = OffsetFilter(min_samples=10)
    t = _bootstrap(fil, noise=0.001)
    before = len(fil.trend)
    fil.offer(t, 5.0)
    assert len(fil.trend) == before


def test_gate_floor_prevents_starvation():
    """After a noiseless bootstrap the raw gate is ~0; the floor must
    keep normal measurement noise acceptable (§5.3 failure mode)."""
    fil = OffsetFilter(min_samples=10, gate_floor=0.010)
    t = _bootstrap(fil, slope=0.0, noise=0.0)
    outcome = fil.offer(t, 0.005)  # 5 ms of ordinary noise
    assert outcome.decision.accepted


def test_two_sided_mode_rejects_suspiciously_good():
    fil = OffsetFilter(min_samples=10, two_sided=True, gate_floor=0.0)
    rng = np.random.default_rng(1)
    t = _bootstrap(fil, noise=0.01, rng=rng)
    # An exactly-on-line sample has squared error far below mean-1sigma.
    outcome = fil.offer(t, fil.trend.predict(t))
    assert outcome.decision in (
        FilterDecision.REJECT_LOW_ERROR, FilterDecision.ACCEPT,
    )


def test_drift_estimate_tracks_slope():
    fil = OffsetFilter(min_samples=10)
    _bootstrap(fil, n=50, slope=2e-5, noise=0.0005)
    assert fil.drift_estimate() == pytest.approx(2e-5, rel=0.2)


def test_reestimation_off_freezes_trend():
    fil = OffsetFilter(min_samples=10, reestimate_every_sample=False)
    t = _bootstrap(fil, slope=0.0, noise=0.001)
    frozen_slope = fil.drift_estimate()
    # Accept many new samples along a different slope; frozen estimate
    # must not move.
    for i in range(20):
        fil.offer(t + i * 5.0, 0.0)
    assert fil.drift_estimate() == frozen_slope


def test_consecutive_rejections_trigger_rebootstrap():
    fil = OffsetFilter(min_samples=10, max_consecutive_rejections=5)
    t = _bootstrap(fil, slope=0.0, noise=0.0005)
    for i in range(5):
        fil.offer(t + i * 5.0, 10.0)  # absurd, always rejected
    assert fil.rebootstrap_count == 1
    assert not fil.bootstrapped  # back in bootstrap mode


def test_acceptance_resets_rejection_streak():
    fil = OffsetFilter(min_samples=10, max_consecutive_rejections=4)
    t = _bootstrap(fil, slope=0.0, noise=0.001)
    for i in range(3):
        fil.offer(t + i, 10.0)
    fil.offer(t + 3, 0.0)  # accepted, resets the streak
    for i in range(3):
        fil.offer(t + 4 + i, 10.0)
    assert fil.rebootstrap_count == 0


def test_bootstrap_trim_discards_spiked_bootstrap_points():
    fil = OffsetFilter(min_samples=10)
    rng = np.random.default_rng(2)
    t = 0.0
    for i in range(9):
        fil.offer(t, float(rng.normal(0, 0.001)))
        t += 5.0
    fil.offer(t, 0.800)  # spike as the final bootstrap sample
    # The trim pass should have dropped the 800 ms point.
    _, offsets = fil.trend.points()
    assert max(abs(o) for o in offsets) < 0.1


def test_counters():
    fil = OffsetFilter(min_samples=5)
    t = _bootstrap(fil, n=5, noise=0.001)
    fil.offer(t, 0.0)
    fil.offer(t + 5, 9.0)
    assert fil.accepted_count == 6
    assert fil.rejected_count == 1


def test_reset_clears_everything():
    fil = OffsetFilter(min_samples=5)
    _bootstrap(fil, n=5)
    fil.reset()
    assert not fil.bootstrapped
    assert len(fil.trend) == 0


def test_invalid_params():
    with pytest.raises(ValueError):
        OffsetFilter(min_samples=1)
    with pytest.raises(ValueError):
        OffsetFilter(gate_floor=-0.1)


@pytest.mark.parametrize("floor", [-0.1, float("nan")])
def test_invalid_gate_floor_rejected(floor):
    # NaN compares False to everything: a NaN floor would drop out of
    # ``max(mean + std, floor**2)``, silently switching the floor off.
    with pytest.raises(ValueError, match="gate_floor"):
        OffsetFilter(gate_floor=floor)


@pytest.mark.parametrize("limit", [0, -1])
def test_nonpositive_rejection_limit_rejected(limit):
    with pytest.raises(ValueError, match="max_consecutive_rejections"):
        OffsetFilter(max_consecutive_rejections=limit)


def test_same_time_offers_stay_in_bootstrap():
    """Points that share one time fit no line (np.polyfit would divide
    0/0), so bootstrap goes on until they span time."""
    fil = OffsetFilter()
    for i in range(12):
        outcome = fil.offer(5.0, 0.001 * i)
        assert outcome.decision is FilterDecision.ACCEPT_BOOTSTRAP
    assert not fil.bootstrapped
    assert fil.drift_estimate() is None
    fil.offer(10.0, 0.0)
    assert fil.bootstrapped


def test_bootstrap_trim_keeps_points_that_span_time():
    """A trim that would leave only one time's points is not applied."""
    fil = OffsetFilter(min_samples=10)
    for _ in range(8):
        fil.offer(5.0, 0.0)
    fil.offer(20.0, 1.0)  # both outliers exceed the trim gate
    fil.offer(21.0, -1.0)
    assert fil.bootstrapped
    times, _ = fil.trend.points()
    assert sorted(set(times)) == [5.0, 20.0, 21.0]
    assert fil.drift_estimate() is not None
    fil.offer(22.0, 0.0)
