"""WirelessChannel process behaviour."""

import dataclasses

import numpy as np
import pytest

from repro.wireless.channel import ChannelParams, WirelessChannel


def _channel(now_box, seed=0, **params):
    return WirelessChannel(
        params=ChannelParams(**params),
        rng=np.random.default_rng(seed),
        now_fn=lambda: now_box[0],
    )


def test_initial_hints_reflect_tx_power_and_path_loss():
    now = [0.0]
    ch = _channel(now, path_loss_db=45.0)
    ch.set_tx_power(-10.0)
    hints = ch.read_hints()
    assert hints.rssi_dbm == pytest.approx(-55.0, abs=15.0)
    assert hints.noise_dbm == pytest.approx(-92.0, abs=8.0)


def test_rssi_tracks_tx_power():
    now = [0.0]
    ch = _channel(now)
    ch.set_tx_power(0.0)
    high = ch.read_hints().rssi_dbm
    ch.set_tx_power(-20.0)
    low = ch.read_hints().rssi_dbm
    assert high - low == pytest.approx(20.0)


def test_tx_power_clamped():
    now = [0.0]
    ch = _channel(now)
    ch.set_tx_power(50.0)
    assert ch.tx_power_dbm == 0.0
    ch.set_tx_power(-100.0)
    assert ch.tx_power_dbm == -30.0


def test_state_varies_over_time():
    now = [0.0]
    ch = _channel(now, seed=3)
    readings = []
    for t in range(0, 600, 10):
        now[0] = float(t)
        readings.append(ch.read_hints().rssi_dbm)
    assert np.std(readings) > 0.5


def test_interference_raises_noise_and_dips_rssi():
    now = [0.0]
    # Force frequent, strong interference.
    ch = _channel(
        now,
        seed=1,
        interference_rate_hz=0.5,
        interference_mean_duration_s=100.0,
        interference_noise_lift_db=25.0,
        interference_rssi_dip_db=20.0,
    )
    quiet_noise = ch.params.quiet_noise_dbm
    saw_interference = False
    for t in range(0, 300):
        now[0] = float(t)
        if ch.interference_active():
            saw_interference = True
            hints = ch.read_hints()
            assert hints.noise_dbm > quiet_noise + 5.0
            break
    assert saw_interference


def test_zero_pressure_stops_new_interference():
    now = [0.0]
    ch = _channel(now, seed=2, interference_rate_hz=0.5)
    ch.set_interference_pressure(0.0)
    active = []
    for t in range(0, 500):
        now[0] = float(t)
        active.append(ch.interference_active())
    assert not any(active)


def test_reproducible_with_same_seed():
    def trajectory(seed):
        now = [0.0]
        ch = _channel(now, seed=seed)
        vals = []
        for t in range(0, 100, 5):
            now[0] = float(t)
            vals.append(ch.read_hints().rssi_dbm)
        return vals

    assert trajectory(5) == trajectory(5)
    assert trajectory(5) != trajectory(6)


def test_bad_params_rejected():
    now = [0.0]
    with pytest.raises(ValueError):
        _channel(now, tick_s=0.0)
    with pytest.raises(ValueError):
        _channel(now, fading_rho=1.0)


def test_snr_margin_is_difference():
    now = [0.0]
    ch = _channel(now)
    hints = ch.read_hints()
    assert hints.snr_margin_db == pytest.approx(hints.rssi_dbm - hints.noise_dbm)


def test_occupancy_lifts_noise_floor():
    """Co-channel traffic raises the measured noise (the CCA coupling
    that lets the MNTP gate see cross-traffic bursts)."""
    now = [0.0]
    ch = _channel(now, seed=9, shadow_sigma_db=0.0, fading_sigma_db=0.0,
                  noise_jitter_db=0.0, interference_rate_hz=0.0,
                  occupancy_noise_gain_db=15.0)
    quiet = ch.read_hints().noise_dbm
    ch.occupancy_fn = lambda: 0.8
    busy = ch.read_hints().noise_dbm
    assert busy == pytest.approx(quiet + 12.0, abs=1e-9)
    ch.occupancy_fn = lambda: 5.0  # clamped to 1.0
    assert ch.read_hints().noise_dbm == pytest.approx(quiet + 15.0, abs=1e-9)


def test_interference_episode_clears_exactly_when_time_runs_out():
    """Regression: episode strengths must reset the moment the remaining
    time is exhausted, even when the duration is not a tick multiple."""
    now = [0.0]
    ch = _channel(now, interference_rate_hz=0.0)
    ch._intf_remaining_s = 2.5
    ch._intf_rssi_dip_db = 10.0
    ch._intf_noise_lift_db = 12.0
    for i in range(3):  # 2.5 s of episode consumed in 1 s ticks
        ch._step_once(ch.params.tick_s, (i + 1) * ch.params.tick_s)
    assert ch._intf_remaining_s == 0.0
    assert ch._intf_rssi_dip_db == 0.0
    assert ch._intf_noise_lift_db == 0.0


@pytest.mark.parametrize("tick_s", [float("nan"), float("inf"), -1.0])
def test_non_finite_or_negative_tick_rejected(tick_s):
    """A NaN or infinite tick would leave the channel frozen at t=0."""
    with pytest.raises(ValueError, match="tick_s"):
        ChannelParams(tick_s=tick_s)


@pytest.mark.parametrize("tau", [0.0, -5.0, float("nan")])
def test_non_positive_shadow_tau_rejected(tau):
    """A zero tau used to raise ZeroDivisionError at the first tick."""
    with pytest.raises(ValueError, match="shadow_tau_s"):
        ChannelParams(shadow_tau_s=tau)


def test_channel_params_are_frozen():
    params = ChannelParams()
    with pytest.raises(dataclasses.FrozenInstanceError):
        params.tick_s = 2.0


# -- the per-tick hint cache -------------------------------------------------


def _rng_state(ch):
    return ch._rng.bit_generator.state


def test_hints_cached_within_a_tick():
    now = [0.0]
    ch = _channel(now, seed=3)
    ch.occupancy_fn = lambda: 0.3
    now[0] = 5.5
    first = ch.read_hints()
    state = _rng_state(ch)
    now[0] = 5.9
    assert ch.read_hints() == first
    assert _rng_state(ch) == state


def test_tx_power_change_shows_within_a_tick():
    now = [0.0]
    ch = _channel(now, seed=3)
    before = ch.read_hints()
    ch.set_tx_power(-20.0)
    after = ch.read_hints()
    assert after.rssi_dbm == pytest.approx(before.rssi_dbm - 10.0)
    assert after.noise_dbm == before.noise_dbm


def test_occupancy_change_shows_within_a_tick():
    now = [0.0]
    ch = _channel(now, seed=3)
    occupancy = [0.0]
    ch.occupancy_fn = lambda: occupancy[0]
    quiet = ch.read_hints()
    occupancy[0] = 0.5
    busy = ch.read_hints()
    lift_db = 0.5 * ch.params.occupancy_noise_gain_db
    assert busy.noise_dbm == pytest.approx(quiet.noise_dbm + lift_db)
    assert busy.rssi_dbm == quiet.rssi_dbm


def test_tick_boundary_refreshes_hints():
    now = [0.0]
    ch = _channel(now, seed=3)
    first = ch.read_hints()
    state = _rng_state(ch)
    now[0] = ch.params.tick_s
    assert ch.read_hints() != first
    assert _rng_state(ch) != state
