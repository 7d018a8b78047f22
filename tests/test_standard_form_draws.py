"""The model draws numpy scalars in standard form, bit for bit.

``Generator.normal(m, s)`` returns ``m + s * standard_normal()``,
``exponential(s)`` returns ``s * standard_exponential()``,
``gamma(k, s)`` returns ``s * standard_gamma(k)`` and ``uniform(lo, hi)``
returns ``lo + (hi - lo) * random()``, each from the same bits of the
stream.  The hot path uses the standard forms because
they skip numpy's per-call argument handling.  Each test here runs a
rewritten draw site next to a copy of the numpy calls it replaced and
demands equal floats and an equal stream state afterwards.  A site that
reads its stream through ``block_reader`` must leave the state of a
generator that drew the same whole blocks.  Dropping numpy's calls also
dropped its lazy ``scale < 0`` check, so the scale parameters are
validated when their dataclasses are built.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.clock.oscillator import OSCILLATOR_GRADES, Oscillator, OscillatorGrade
from repro.clock.simclock import SimClock
from repro.clock.temperature import DiurnalTemperature
from repro.net.path import PathModel
from repro.ntp.server import ServerConfig, ServerPersona
from repro.simcore.simulator import Simulator
from repro.simcore.random import BLOCK_SIZE, RngRegistry
from repro.testbed.nodes import Testbed, TestbedOptions
from repro.wireless.channel import ChannelParams, WirelessChannel
from repro.wireless.crosstraffic import CrossTrafficGenerator, CrossTrafficParams
from repro.wireless.effects import ChannelEffects, EffectsParams
from repro.wireless.hints import StaticHintProvider, WirelessHints
from tests.core.parity import HINT
from tests.ntp.helpers import MiniNet

seeds = st.integers(0, 2**32 - 1)
# A zero scale is a legal, degenerate draw; include it explicitly.
scales = st.one_of(st.just(0.0), st.floats(1e-6, 10.0))


def _same_state(a: np.random.Generator, b: np.random.Generator) -> bool:
    return a.bit_generator.state == b.bit_generator.state


def _drew_blocks(fill, draws):
    """Call ``fill`` as a block reader does for ``draws`` values."""
    for _ in range(math.ceil(draws / BLOCK_SIZE)):
        fill(BLOCK_SIZE)


# -- ChannelEffects.sample -------------------------------------------------


class _Occupancy:
    def __init__(self, value):
        self.value = value

    def occupancy(self):
        return self.value


def _reference_sample(effects, rng):
    """The numpy calls ``ChannelEffects.sample`` made before the rewrite."""
    p = effects.params
    hints = effects.channel.read_hints()
    occupancy = effects.cross_traffic.occupancy() if effects.cross_traffic else 0.0
    err = effects._per_attempt_error_prob(hints.snr_margin_db, occupancy)
    retries = 0
    while retries <= p.max_retries and rng.random() < err:
        retries += 1
    if retries > p.max_retries:
        return True, 0.0, 0.0
    delay = float(rng.exponential(p.base_jitter_s))
    retry_delay = retries * p.retry_delay_s * float(rng.uniform(0.7, 1.5))
    delay += retry_delay
    if occupancy > 0:
        mean_q = p.contention_delay_s * (occupancy ** 2) / max(0.05, 1.0 - occupancy)
        delay += float(rng.exponential(mean_q)) if mean_q > 0 else 0.0
    return False, delay, retry_delay


@settings(max_examples=60, deadline=None)
@given(
    seed=seeds,
    margin_db=st.floats(-10.0, 50.0),
    occupancy=st.one_of(st.just(0.0), st.floats(0.0, 0.95)),
    base_jitter_s=scales,
    contention_delay_s=scales,
    retry_delay_s=st.floats(0.0, 0.05),
    max_retries=st.integers(0, 7),
)
def test_effects_sample_matches_numpy_calls(seed, margin_db, occupancy, base_jitter_s,
                                            contention_delay_s, retry_delay_s,
                                            max_retries):
    hints = StaticHintProvider(WirelessHints(rssi_dbm=-92.0 + margin_db, noise_dbm=-92.0))
    params = EffectsParams(base_jitter_s=base_jitter_s,
                           contention_delay_s=contention_delay_s,
                           retry_delay_s=retry_delay_s, max_retries=max_retries)
    effects = ChannelEffects(hints, np.random.default_rng(seed), _Occupancy(occupancy),
                             params)
    reference = np.random.default_rng(seed)
    for _ in range(40):
        effect = effects.sample()
        lost, delay, retry_delay = _reference_sample(effects, reference)
        assert effect.lost == lost
        if not lost:
            assert effect.extra_delay == delay
            assert effect.retry_delay == retry_delay
    assert _same_state(effects._rng, reference)


# -- WirelessChannel._step_once --------------------------------------------


def _reference_step(ch, dt, t):
    """The numpy calls ``WirelessChannel._step_once`` made before the rewrite."""
    p = ch.params
    rng = ch._rng
    alpha = math.exp(-dt / p.shadow_tau_s)
    shock_sigma = p.shadow_sigma_db * math.sqrt(max(0.0, 1.0 - alpha * alpha))
    ch._shadow_db = alpha * ch._shadow_db + float(rng.normal(0.0, shock_sigma))
    rho = p.fading_rho
    fade_sigma = p.fading_sigma_db * math.sqrt(max(0.0, 1.0 - rho * rho))
    ch._fading_db = rho * ch._fading_db + float(rng.normal(0.0, fade_sigma))
    nj_sigma = p.noise_jitter_db * math.sqrt(max(0.0, 1.0 - rho * rho))
    ch._noise_jitter_db = rho * ch._noise_jitter_db + float(rng.normal(0.0, nj_sigma))
    if ch._intf_remaining_s > 0:
        ch._intf_remaining_s = max(0.0, ch._intf_remaining_s - dt)
        if ch._intf_remaining_s <= 0.0:
            ch._intf_rssi_dip_db = 0.0
            ch._intf_noise_lift_db = 0.0
    else:
        rate = p.interference_rate_hz * max(0.0, ch.interference_pressure)
        if rate > 0 and rng.random() < 1.0 - math.exp(-rate * dt):
            ch._intf_remaining_s = float(rng.exponential(p.interference_mean_duration_s))
            ch._intf_rssi_dip_db = float(rng.normal(p.interference_rssi_dip_db, 3.0))
            ch._intf_noise_lift_db = float(rng.normal(p.interference_noise_lift_db, 4.0))


def _channel_state(ch):
    return (ch._shadow_db, ch._fading_db, ch._noise_jitter_db, ch._intf_remaining_s,
            ch._intf_rssi_dip_db, ch._intf_noise_lift_db)


@settings(max_examples=60, deadline=None)
@given(
    seed=seeds,
    shadow_sigma_db=scales,
    shadow_tau_s=st.floats(0.5, 600.0),
    fading_sigma_db=scales,
    fading_rho=st.floats(0.0, 0.99),
    noise_jitter_db=scales,
    interference_rate_hz=st.one_of(st.just(0.0), st.floats(0.01, 1.0)),
    interference_mean_duration_s=scales,
    tick_s=st.floats(0.1, 5.0),
    pressure=st.floats(0.0, 3.0),
)
def test_channel_step_matches_numpy_calls(seed, shadow_sigma_db, shadow_tau_s,
                                          fading_sigma_db, fading_rho, noise_jitter_db,
                                          interference_rate_hz,
                                          interference_mean_duration_s, tick_s, pressure):
    params = ChannelParams(
        shadow_sigma_db=shadow_sigma_db, shadow_tau_s=shadow_tau_s,
        fading_sigma_db=fading_sigma_db, fading_rho=fading_rho,
        noise_jitter_db=noise_jitter_db, interference_rate_hz=interference_rate_hz,
        interference_mean_duration_s=interference_mean_duration_s, tick_s=tick_s,
    )
    channels = [WirelessChannel(params, np.random.default_rng(seed), now_fn=lambda: 0.0)
                for _ in range(2)]
    for ch in channels:
        ch.set_interference_pressure(pressure)
    rewritten, reference = channels
    for i in range(60):
        t = (i + 1) * tick_s
        rewritten._step_once(tick_s, t)
        _reference_step(reference, tick_s, t)
        assert _channel_state(rewritten) == _channel_state(reference)
    assert _same_state(rewritten._rng, reference._rng)


# -- Oscillator.wander_step and SimClock._advance_to -----------------------


@settings(max_examples=60, deadline=None)
@given(seed=seeds, wander=scales,
       dts=st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 100.0)), min_size=1,
                    max_size=30))
def test_wander_step_matches_numpy_calls(seed, wander, dts):
    grade = OscillatorGrade(name="t", base_skew_ppm_sigma=1.0,
                            wander_ppm_per_sqrt_s=wander, temp_coeff_ppm_per_k=0.1)
    rng = np.random.default_rng(seed)
    osc = Oscillator(grade, rng)
    reference = np.random.default_rng(seed)
    assert osc.base_skew_ppm == float(reference.normal(0.0, 1.0))
    for dt in dts:
        expected = float(reference.normal(0.0, wander * (dt**0.5))) if dt else 0.0
        assert osc.wander_step(dt) == expected
    blocks = np.random.default_rng(seed)
    blocks.normal(0.0, 1.0)
    _drew_blocks(blocks.standard_normal, sum(1 for dt in dts if dt))
    assert _same_state(rng, blocks)


class _ReferenceClock(SimClock):
    """``SimClock`` with the integrator it had before the loop-local rewrite.

    It draws its wander by scalar calls from its own generator, seeded
    like the oscillator's and already past the oscillator's skew draw.
    """

    def __init__(self, oscillator, rng, **kwargs):
        super().__init__(oscillator, **kwargs)
        self.rng = rng
        self.draws = 0

    def _advance_to(self, true_now):
        remaining = true_now - self._last_true
        t = self._last_true
        while remaining > 0:
            dt = min(remaining, self._update_interval)
            freq = self.oscillator.frequency_error(
                self._wander_ppm, self.temperature.at(t)
            ) + self._freq_adjust_ppm * 1e-6
            self._offset += freq * dt
            if self._slew_remaining != 0.0:
                self._apply_slew(dt)
            sigma = self.oscillator.grade.wander_ppm_per_sqrt_s * (dt**0.5)
            self._wander_ppm += float(self.rng.normal(0.0, sigma))
            self.draws += 1
            t += dt
            remaining -= dt
        self._last_true = true_now


_clock_ops = st.lists(
    st.tuples(st.floats(0.0, 40.0),
              st.sampled_from(["read", "slew", "step", "freq"]),
              st.floats(-0.05, 0.05)),
    min_size=1, max_size=25,
)


@settings(max_examples=60, deadline=None)
@given(seed=seeds, ops=_clock_ops)
def test_clock_integrator_matches_reference(seed, ops):
    now = [0.0]
    grade = OSCILLATOR_GRADES["phone"]
    scalar = np.random.default_rng(seed)
    scalar.normal(0.0, grade.base_skew_ppm_sigma)
    rng = np.random.default_rng(seed)
    clocks = [
        SimClock(Oscillator(grade, rng),
                 now_fn=lambda: now[0], temperature=DiurnalTemperature(phase_s=2e4)),
        _ReferenceClock(Oscillator(grade, np.random.default_rng(seed)), scalar,
                        now_fn=lambda: now[0],
                        temperature=DiurnalTemperature(phase_s=2e4)),
    ]
    for advance, op, value in ops:
        now[0] += advance
        for clock in clocks:
            if op == "slew":
                clock.slew(value)
            elif op == "step":
                clock.step(value)
            elif op == "freq":
                clock.nudge_frequency(value * 100.0)
        # The offset itself: its low bits vanish in ``read()``'s sum.
        assert clocks[0].true_offset() == clocks[1].true_offset()
        assert clocks[0].read() == clocks[1].read()
    assert clocks[0]._wander_ppm == clocks[1]._wander_ppm
    blocks = np.random.default_rng(seed)
    blocks.normal(0.0, grade.base_skew_ppm_sigma)
    _drew_blocks(blocks.standard_normal, clocks[1].draws)
    assert _same_state(rng, blocks)


# -- Testbed._ping_probe ---------------------------------------------------


@pytest.mark.parametrize("seed", [0, 7, 12345])
def test_ping_rtt_matches_numpy_calls(seed):
    sim = Simulator(seed=seed)
    testbed = Testbed(sim, TestbedOptions(wireless=False, ntp_correction=False))
    rtts = [None] * 5
    for i in range(5):  # echoes arrive in rtt order, so file each by probe
        testbed._ping_probe(lambda rtt, i=i: rtts.__setitem__(i, rtt))
    sim.run_until(10.0)
    reference = RngRegistry(seed).stream("ping-path")
    base_rtt = 2 * testbed.options.wired_base_delay
    assert rtts == [base_rtt + float(reference.exponential(0.004)) for _ in range(5)]
    blocks = RngRegistry(seed).stream("ping-path")
    _drew_blocks(blocks.standard_exponential, 5)
    assert _same_state(sim.rng.stream("ping-path"), blocks)


# -- PathModel.sample ------------------------------------------------------


def _reference_path_sample(path, rng):
    """The numpy calls ``PathModel.sample`` made before the rewrite."""
    if path.loss_rate > 0 and rng.random() < path.loss_rate:
        return True, float("inf"), 0.0, 0.0, 0.0
    queue = 0.0
    spike = 0.0
    if path.queue_mean > 0:
        scale = path.queue_mean / path.queue_shape
        queue = float(rng.gamma(path.queue_shape, scale))
    if path.spike_rate > 0 and rng.random() < path.spike_rate:
        spike = float(rng.exponential(path.spike_scale))
    return False, path.base_delay + queue + spike, path.base_delay, queue, spike


@settings(max_examples=60, deadline=None)
@given(
    seed=seeds,
    base_delay=st.floats(0.0, 0.2),
    queue_mean=scales,
    # Below 1 numpy's gamma takes its other branch; cover both.
    queue_shape=st.floats(0.05, 8.0),
    loss_rate=st.one_of(st.just(0.0), st.floats(0.0, 0.5)),
    spike_rate=st.one_of(st.just(0.0), st.floats(0.0, 0.5)),
    spike_scale=scales,
)
def test_path_sample_matches_numpy_calls(seed, base_delay, queue_mean, queue_shape,
                                         loss_rate, spike_rate, spike_scale):
    path = PathModel(np.random.default_rng(seed), base_delay=base_delay,
                     queue_mean=queue_mean, queue_shape=queue_shape, loss_rate=loss_rate,
                     spike_rate=spike_rate, spike_scale=spike_scale)
    reference = np.random.default_rng(seed)
    for _ in range(40):
        got = path.sample()
        want = _reference_path_sample(path, reference)
        assert (got.lost, got.delay, got.base, got.queue, got.spike) == want, HINT
    assert _same_state(path._rng, reference), HINT


# -- NtpServer processing delay --------------------------------------------


@settings(max_examples=30, deadline=None)
@given(seed=seeds, processing_delay=scales)
def test_server_processing_delay_matches_numpy_calls(seed, processing_delay):
    sim = Simulator(seed=seed)
    net = MiniNet(sim, [ServerConfig(name="s1", processing_delay=processing_delay)])
    server = net.servers["s1"]
    delays = []
    call_after = sim.call_after

    def recording(delay, callback, label=""):
        if label == server._respond_label:
            delays.append(delay)
        return call_after(delay, callback, label)

    sim.call_after = recording
    for i in range(10):
        sim.call_at(float(i), lambda: net.client.query("s1", lambda result: None))
    sim.run_until(20.0)
    reference = RngRegistry(seed).stream("server:s1")
    assert delays == [float(reference.exponential(processing_delay))
                      for _ in range(10)], HINT
    blocks = RngRegistry(seed).stream("server:s1")
    _drew_blocks(blocks.standard_exponential, 10)
    assert _same_state(server._rng, blocks), HINT


def _query_ten_times(sim, net, server):
    """Query ``server`` once a second for 10 s; return its processing delays."""
    delays = []
    call_after = sim.call_after

    def recording(delay, callback, label=""):
        if label == server._respond_label:
            delays.append(delay)
        return call_after(delay, callback, label)

    sim.call_after = recording
    for i in range(10):
        sim.call_at(float(i), lambda: net.client.query(server.config.name,
                                                       lambda result: None))
    sim.run_until(20.0)
    return delays


# A NOISY or UNRESPONSIVE server also draws timestamp noise or drop
# decisions from its stream, so it keeps numpy's scalar sequence.  The
# delays stay far below the 1 s query spacing, so the draws of one
# exchange never interleave with the next one's.
short_delays = st.one_of(st.just(0.0), st.floats(1e-6, 0.01))


@settings(max_examples=20, deadline=None)
@given(seed=seeds, processing_delay=short_delays)
def test_noisy_server_draws_scalars(seed, processing_delay):
    sim = Simulator(seed=seed)
    config = ServerConfig(name="s1", persona=ServerPersona.NOISY,
                          processing_delay=processing_delay)
    net = MiniNet(sim, [config])
    server = net.servers["s1"]
    delays = _query_ten_times(sim, net, server)
    reference = RngRegistry(seed).stream("server:s1")
    want = []
    for _ in range(10):
        reference.normal(0.0, config.noisy_sigma)  # T2
        want.append(float(reference.exponential(processing_delay)))
        reference.normal(0.0, config.noisy_sigma)  # T3
    assert delays == want, HINT
    assert _same_state(server._rng, reference), HINT


@settings(max_examples=20, deadline=None)
@given(seed=seeds, processing_delay=short_delays, drop_rate=st.floats(0.0, 1.0))
def test_unresponsive_server_draws_scalars(seed, processing_delay, drop_rate):
    sim = Simulator(seed=seed)
    net = MiniNet(sim, [ServerConfig(name="s1", persona=ServerPersona.UNRESPONSIVE,
                                     processing_delay=processing_delay,
                                     drop_rate=drop_rate)])
    server = net.servers["s1"]
    delays = _query_ten_times(sim, net, server)
    reference = RngRegistry(seed).stream("server:s1")
    want = [float(reference.exponential(processing_delay))
            for _ in range(10) if not reference.random() < drop_rate]
    assert delays == want, HINT
    assert _same_state(server._rng, reference), HINT


# -- CrossTrafficGenerator gaps and durations ------------------------------


# Zero gaps and zero durations together would alternate forever at one
# instant, so the scales here are positive.
@settings(max_examples=40, deadline=None)
@given(seed=seeds, mean_gap_s=st.floats(1e-6, 100.0), mean_duration_s=st.floats(1e-6, 100.0),
       frequency_scale=st.floats(0.05, 20.0))
def test_cross_traffic_draws_match_numpy_calls(seed, mean_gap_s, mean_duration_s,
                                               frequency_scale):
    sim = Simulator(seed=seed)
    gen = CrossTrafficGenerator(sim, CrossTrafficParams(mean_gap_s=mean_gap_s,
                                                        mean_duration_s=mean_duration_s))
    gen.set_frequency_scale(frequency_scale)
    delays = []
    call_after = sim.call_after

    def recording(delay, callback, label=""):
        delays.append((label, delay))
        return call_after(delay, callback, label)

    sim.call_after = recording
    gen.start()
    while len(delays) < 20:
        sim.run_until(sim._heap[0][0])
    reference = RngRegistry(seed).stream("crosstraffic")
    want = []
    for _ in range(10):
        want.append(("xtraffic:begin",
                     float(reference.exponential(mean_gap_s / gen.frequency_scale))))
        want.append(("xtraffic:end", float(reference.exponential(mean_duration_s))))
    assert delays[:20] == want, HINT
    blocks = RngRegistry(seed).stream("crosstraffic")
    _drew_blocks(blocks.standard_exponential, len(delays))
    assert _same_state(sim.rng.stream("crosstraffic"), blocks), HINT


# -- the scale checks numpy used to make lazily ----------------------------


@pytest.mark.parametrize("name", ["shadow_sigma_db", "fading_sigma_db", "noise_jitter_db",
                                  "interference_mean_duration_s"])
def test_negative_channel_scale_rejected_at_construction(name):
    with pytest.raises(ValueError, match=name):
        ChannelParams(**{name: -1.0})


@pytest.mark.parametrize("name", ["base_jitter_s", "contention_delay_s"])
def test_negative_effects_scale_rejected_at_construction(name):
    with pytest.raises(ValueError, match=name):
        EffectsParams(**{name: -1e-3})


def test_negative_wander_rejected_at_construction():
    with pytest.raises(ValueError, match="wander_ppm_per_sqrt_s"):
        OscillatorGrade(name="bad", base_skew_ppm_sigma=1.0, wander_ppm_per_sqrt_s=-1e-3,
                        temp_coeff_ppm_per_k=0.0)


# Draw scales and delays that numpy would have rejected lazily, or that
# would have yielded NaN or never-arriving packets.
_BAD_PATH_ARGS = [
    ("base_delay", float("nan")),
    ("base_delay", float("inf")),
    ("base_delay", -1e-3),
    ("queue_mean", float("nan")),
    ("queue_mean", -1e-3),
    ("queue_shape", float("nan")),
    ("queue_shape", 0.0),
    ("spike_scale", float("nan")),
    ("spike_scale", -0.1),
]


@pytest.mark.parametrize("name, value", _BAD_PATH_ARGS)
def test_bad_path_parameter_rejected_at_construction(name, value):
    with pytest.raises(ValueError, match=name):
        PathModel(np.random.default_rng(0), **{name: value})


@pytest.mark.parametrize("value", [-1.0, float("nan")])
def test_bad_processing_delay_rejected_at_construction(value):
    with pytest.raises(ValueError, match="processing_delay"):
        ServerConfig(name="s1", processing_delay=value)


@pytest.mark.parametrize("name", ["mean_gap_s", "mean_duration_s"])
@pytest.mark.parametrize("value", [-1.0, float("nan")])
def test_bad_cross_traffic_scale_rejected_at_construction(name, value):
    with pytest.raises(ValueError, match=name):
        CrossTrafficParams(**{name: value})
