"""The drift-correction clamp (poisoned warm-up containment)."""

import pytest

from repro.clock.discipline_api import ClockCorrector
from repro.core.config import MntpConfig
from repro.core.protocol import Mntp
from repro.ntp.server import ServerConfig
from repro.simcore.simulator import Simulator
from repro.wireless.hints import ALWAYS_FAVORABLE, StaticHintProvider
from tests.ntp.helpers import MiniNet, drifting_clock


def _run_with_estimate_bias(sim, clock, config):
    configs = [
        ServerConfig(name=name, processing_delay=1e-6)
        for name in ("0.pool.ntp.org", "1.pool.ntp.org", "3.pool.ntp.org")
    ]
    net = MiniNet(sim, configs, client_clock=clock)
    mntp = Mntp(
        sim, net.client, StaticHintProvider(ALWAYS_FAVORABLE),
        ClockCorrector(clock), config=config,
    )
    return net, mntp


def test_sane_estimate_applied_unclamped():
    sim = Simulator(seed=1)
    clock = drifting_clock(sim, skew_ppm=30.0, stream="c")
    config = MntpConfig(
        warmup_period=120.0, warmup_wait_time=5.0, regular_wait_time=30.0,
        reset_period=3600.0, min_warmup_samples=5,
        max_drift_correction_ppm=50.0,
    )
    net, mntp = _run_with_estimate_bias(sim, clock, config)
    mntp.start()
    sim.run_until(150.0)
    # 30 ppm < 50 ppm clamp: trim ~ -30 ppm applied in full.
    assert clock.frequency_adjustment_ppm == pytest.approx(-30.0, abs=8.0)


def test_extreme_estimate_clamped():
    sim = Simulator(seed=1)
    # 300 ppm skew produces a trend slope far past the clamp.
    clock = drifting_clock(sim, skew_ppm=300.0, stream="c")
    config = MntpConfig(
        warmup_period=120.0, warmup_wait_time=5.0, regular_wait_time=30.0,
        reset_period=3600.0, min_warmup_samples=5,
        max_drift_correction_ppm=50.0,
    )
    net, mntp = _run_with_estimate_bias(sim, clock, config)
    mntp.start()
    sim.run_until(150.0)
    # Applied trim clamped to the configured bound.
    assert abs(clock.frequency_adjustment_ppm) <= 50.0 + 1e-6
    corrected = sim.trace.select(component="mntp", kind="drift_corrected")
    assert corrected
    assert abs(corrected[0].data["drift"]) <= 50e-6 + 1e-12


def test_clamp_configurable():
    sim = Simulator(seed=1)
    clock = drifting_clock(sim, skew_ppm=300.0, stream="c")
    config = MntpConfig(
        warmup_period=120.0, warmup_wait_time=5.0, regular_wait_time=30.0,
        reset_period=3600.0, min_warmup_samples=5,
        max_drift_correction_ppm=500.0,
    )
    net, mntp = _run_with_estimate_bias(sim, clock, config)
    mntp.start()
    sim.run_until(150.0)
    # With a generous clamp the full 300 ppm is cancelled.
    assert clock.frequency_adjustment_ppm == pytest.approx(-300.0, rel=0.1)
