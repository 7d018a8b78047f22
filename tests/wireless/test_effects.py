"""Channel-effects mapping: hints drive loss and delay."""

import dataclasses

import numpy as np
import pytest

from repro.wireless.channel import ChannelParams, WirelessChannel
from repro.wireless.crosstraffic import CrossTrafficGenerator, CrossTrafficParams
from repro.simcore.simulator import Simulator
from repro.wireless.effects import ChannelEffects, EffectsParams


def _fixed_channel(rssi=-50.0, noise=-92.0):
    """A channel pinned to given hints (no dynamics)."""
    now = [0.0]
    params = ChannelParams(
        path_loss_db=0.0,
        shadow_sigma_db=0.0,
        fading_sigma_db=0.0,
        noise_jitter_db=0.0,
        quiet_noise_dbm=noise,
        interference_rate_hz=0.0,
    )
    ch = WirelessChannel(params, np.random.default_rng(0), now_fn=lambda: now[0])
    ch.set_tx_power(rssi if rssi <= 0 else 0.0)
    return ch


def _stats(effects, n=3000):
    lost = 0
    delays = []
    for _ in range(n):
        e = effects.sample()
        if e.lost:
            lost += 1
        else:
            delays.append(e.extra_delay)
    return lost / n, (np.mean(delays) if delays else float("inf"))


def test_good_snr_low_loss_low_delay():
    ch = _fixed_channel(rssi=-50.0, noise=-92.0)  # margin 42 dB
    effects = ChannelEffects(ch, np.random.default_rng(1))
    loss, mean_delay = _stats(effects)
    assert loss < 0.01
    assert mean_delay < 0.010


def test_poor_snr_high_loss_high_delay():
    ch = _fixed_channel(rssi=-22.0, noise=-30.0)  # margin 8 dB
    effects = ChannelEffects(ch, np.random.default_rng(1))
    loss, mean_delay = _stats(effects)
    assert loss > 0.05
    assert mean_delay > 0.010  # retransmission backoffs


def test_loss_monotone_in_snr():
    losses = []
    for margin_noise in (-80.0, -55.0, -35.0):  # margins 80, 55, 35... then worse
        ch = _fixed_channel(rssi=-20.0, noise=margin_noise)
        effects = ChannelEffects(ch, np.random.default_rng(2))
        loss, _ = _stats(effects, n=2000)
        losses.append(loss)
    assert losses == sorted(losses)


def test_occupancy_adds_contention_delay():
    sim = Simulator(seed=1)
    ch = _fixed_channel()
    xt = CrossTrafficGenerator(
        sim, CrossTrafficParams(occupancy_during_download=0.8, occupancy_idle=0.0)
    )
    effects = ChannelEffects(ch, np.random.default_rng(3), cross_traffic=xt)
    xt.downloading = False
    _, idle_delay = _stats(effects, n=2000)
    xt.downloading = True
    _, busy_delay = _stats(effects, n=2000)
    assert busy_delay > idle_delay * 3


def test_retry_limit_bounds_delay():
    ch = _fixed_channel(rssi=-20.0, noise=-25.0)  # terrible margin
    params = EffectsParams(max_retries=2, retry_delay_s=0.01)
    effects = ChannelEffects(ch, np.random.default_rng(4), params=params)
    for _ in range(2000):
        e = effects.sample()
        if not e.lost:
            # At most 2 retries at <= 0.015 s each plus jitter/queue.
            assert e.extra_delay < 0.2


def test_as_hook_returns_callable():
    ch = _fixed_channel()
    effects = ChannelEffects(ch, np.random.default_rng(5))
    hook = effects.as_hook()
    result = hook()
    assert hasattr(result, "extra_delay")


def test_effects_params_are_frozen():
    """The default ``EffectsParams()`` is one instance shared by every
    ``ChannelEffects``; freezing it keeps that sharing harmless."""
    effects = ChannelEffects(_fixed_channel(), np.random.default_rng(6))
    with pytest.raises(dataclasses.FrozenInstanceError):
        effects.params.base_jitter_s = 1.0


@pytest.mark.parametrize("occupancy_lifts_noise", [True, False])
def test_error_probability_cache_tracks_ticks_downloads_and_tx_power(occupancy_lifts_noise):
    """The cached per-attempt error probability always equals the value
    computed afresh from the current hints and occupancy: across channel
    ticks, download starts and ends, and tx power changes.  Without an
    occupancy source on the channel a download leaves the hints as they
    are, so the occupancy must key the cache too."""
    sim = Simulator(seed=7)
    ch = WirelessChannel(ChannelParams(), np.random.default_rng(8), now_fn=lambda: sim.now)
    xt = CrossTrafficGenerator(sim, CrossTrafficParams(mean_gap_s=20.0, mean_duration_s=10.0))
    if occupancy_lifts_noise:
        ch.occupancy_fn = xt.occupancy
    effects = ChannelEffects(ch, np.random.default_rng(9), cross_traffic=xt)
    uncached = effects._per_attempt_error_prob
    computed = []

    def counted(margin_db, occupancy):
        computed.append(margin_db)
        return uncached(margin_db, occupancy)

    effects._per_attempt_error_prob = counted
    # Per packet: (hints object, occupancy, tx power) after sampling.
    states = []

    def packet():
        if len(states) % 37 == 36:
            ch.set_tx_power(-10.0 - (len(states) // 37) % 5)
        effects.sample()
        hints = ch.read_hints()
        assert effects._err == uncached(hints.snr_margin_db, xt.occupancy())
        states.append((hints, xt.occupancy(), ch.tx_power_dbm))
        sim.call_after(0.25, packet)

    xt.start()
    sim.call_after(0.0, packet)
    sim.run_until(300.0)
    steps = list(zip(states, states[1:]))
    assert any(a[1] < b[1] for a, b in steps)  # a download started
    assert any(a[1] > b[1] for a, b in steps)  # a download ended
    assert any(a[2] != b[2] for a, b in steps)  # the tx power changed
    assert any(a[0] is not b[0] and a[1:] == b[1:] for a, b in steps)  # a tick
    # Packets within one tick reuse the value.
    assert len(computed) < len(states) / 2
