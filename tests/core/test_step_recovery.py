"""Graceful degradation: upstream step detection and re-warm-up."""

from repro.clock.discipline_api import ClockCorrector
from repro.core.config import MntpConfig
from repro.core.protocol import Mntp, MntpPhase
from repro.ntp.server import ServerConfig
from repro.simcore.simulator import Simulator
from tests.ntp.helpers import MiniNet, drifting_clock

POOLS = ("0.pool.ntp.org", "1.pool.ntp.org", "3.pool.ntp.org")


def _config(**overrides):
    base = dict(
        warmup_period=120.0,
        warmup_wait_time=10.0,
        regular_wait_time=20.0,
        reset_period=100_000.0,  # far away: recovery must not lean on it
        min_warmup_samples=5,
        query_timeout=1.0,
        enable_hint_gate=False,  # wired scenario: no channel gating
        enable_step_recovery=True,
        step_recovery_rejections=4,
        # High ceiling so the filter's own re-bootstrap guard cannot
        # mask the behaviour under test.
        max_consecutive_rejections=1000,
    )
    base.update(overrides)
    return MntpConfig(**base)


def _build(sim, config):
    configs = [ServerConfig(name=n, processing_delay=1e-6) for n in POOLS]
    clock = drifting_clock(sim, skew_ppm=0.0, stream="tn")
    net = MiniNet(sim, configs, client_clock=clock)
    corrector = ClockCorrector(clock, enabled=False)
    mntp = Mntp(sim, net.client, hints=None, corrector=corrector, config=config)
    return net, mntp


def _step_all(net, delta):
    for server in net.servers.values():
        server.faults.add_step(delta)


def test_upstream_step_triggers_detection_and_reacquisition():
    sim = Simulator(seed=1)
    net, mntp = _build(sim, _config())
    mntp.start()
    sim.run_until(200.0)
    assert mntp.phase is MntpPhase.REGULAR
    sim.call_at(300.0, lambda: _step_all(net, 0.5))
    sim.run_until(900.0)
    assert mntp.step_detections == 1
    assert mntp.reset_count == 1
    events = sim.trace.select(component="mntp", kind="step_detected")
    assert len(events) == 1
    detected_at = events[0].time
    assert detected_at > 300.0
    # Re-warm-up re-acquires the stepped timescale: the regular phase
    # resumes and accepts offsets at the new ~+0.5 s level.
    assert mntp.phase is MntpPhase.REGULAR
    late = [r for r in mntp.accepted_offsets()
            if r.time > detected_at + mntp.config.warmup_period]
    assert late
    assert all(abs(r.offset - 0.5) < 0.05 for r in late)


def test_no_detection_when_disabled():
    sim = Simulator(seed=1)
    net, mntp = _build(sim, _config(enable_step_recovery=False))
    mntp.start()
    sim.run_until(200.0)
    sim.call_at(300.0, lambda: _step_all(net, 0.5))
    sim.run_until(900.0)
    assert mntp.step_detections == 0
    assert not sim.trace.select(component="mntp", kind="step_detected")
    assert mntp.reset_count == 0
    # Without recovery the filter stonewalls the stepped timescale.
    assert not [r for r in mntp.accepted_offsets() if r.time > 320.0]


def test_small_residuals_reset_the_streak():
    sim = Simulator(seed=1)
    _, mntp = _build(sim, _config(step_recovery_rejections=3))
    big = mntp.config.step_recovery_min_residual * 2
    mntp._note_rejection(big)
    mntp._note_rejection(big)
    mntp._note_rejection(0.001)  # below min_residual: streak resets
    mntp._note_rejection(big)
    mntp._note_rejection(big)
    assert mntp.step_detections == 0
    mntp._note_rejection(big)
    assert mntp.step_detections == 1


def test_sign_flip_resets_the_streak():
    sim = Simulator(seed=1)
    _, mntp = _build(sim, _config(step_recovery_rejections=3))
    big = mntp.config.step_recovery_min_residual * 2
    mntp._note_rejection(big)
    mntp._note_rejection(big)
    mntp._note_rejection(-big)  # opposite sign: streak restarts at 1
    mntp._note_rejection(-big)
    assert mntp.step_detections == 0
    mntp._note_rejection(-big)
    assert mntp.step_detections == 1


def test_config_validation():
    import pytest

    with pytest.raises(ValueError):
        _config(step_recovery_rejections=1)
    with pytest.raises(ValueError):
        _config(step_recovery_min_residual=0.0)
