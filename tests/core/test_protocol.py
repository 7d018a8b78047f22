"""The Mntp state machine (Algorithm 1)."""

import pytest

from repro.clock.discipline_api import ClockCorrector
from repro.core.config import MntpConfig
from repro.core.events import MntpEventKind
from repro.core.protocol import Mntp, MntpPhase
from repro.ntp.server import ServerConfig, ServerPersona
from repro.simcore.simulator import Simulator
from repro.wireless.hints import WirelessHints
from tests.ntp.helpers import MiniNet, drifting_clock


class MutableHints:
    """A hint provider the test can flip between good and bad."""

    def __init__(self) -> None:
        self.good = True

    def read_hints(self) -> WirelessHints:
        if self.good:
            return WirelessHints(rssi_dbm=-45.0, noise_dbm=-92.0)
        return WirelessHints(rssi_dbm=-85.0, noise_dbm=-60.0)


POOLS = ("0.pool.ntp.org", "1.pool.ntp.org", "3.pool.ntp.org")


def _build(sim, config, clock=None, falseticker=False, corrector_enabled=True):
    configs = [
        ServerConfig(
            name=name,
            processing_delay=1e-6,
            persona=(
                ServerPersona.FALSETICKER
                if falseticker and name == "3.pool.ntp.org"
                else ServerPersona.TRUECHIMER
            ),
            falseticker_bias=0.4,
        )
        for name in POOLS
    ]
    clock = clock or drifting_clock(sim, skew_ppm=0.0, stream="tn")
    net = MiniNet(sim, configs, client_clock=clock)
    hints = MutableHints()
    corrector = ClockCorrector(clock, enabled=corrector_enabled)
    mntp = Mntp(sim, net.client, hints, corrector, config=config)
    return net, hints, mntp


def _config(**overrides):
    base = dict(
        warmup_period=120.0,
        warmup_wait_time=10.0,
        regular_wait_time=20.0,
        reset_period=1000.0,
        min_warmup_samples=5,
        query_timeout=1.0,
    )
    base.update(overrides)
    return MntpConfig(**base)


def test_starts_in_warmup_then_enters_regular():
    sim = Simulator(seed=1)
    net, hints, mntp = _build(sim, _config())
    mntp.start()
    sim.run_until(60.0)
    assert mntp.phase is MntpPhase.WARMUP
    sim.run_until(200.0)
    assert mntp.phase is MntpPhase.REGULAR
    events = sim.trace.select(component="mntp", kind="warmup_complete")
    assert len(events) == 1


def test_warmup_queries_three_pools():
    sim = Simulator(seed=1)
    net, hints, mntp = _build(sim, _config())
    mntp.start()
    sim.run_until(50.0)
    sent = sim.trace.select(component="mntp", kind="query_sent")
    assert sent
    assert sent[0].data["sources"] == list(POOLS)


def test_regular_queries_single_source():
    sim = Simulator(seed=1)
    net, hints, mntp = _build(sim, _config())
    mntp.start()
    sim.run_until(300.0)
    regular = [
        r for r in sim.trace.select(component="mntp", kind="query_sent")
        if r.data["phase"] == "regular"
    ]
    assert regular
    assert all(len(r.data["sources"]) == 1 for r in regular)


def test_bad_hints_defer_queries():
    sim = Simulator(seed=1)
    net, hints, mntp = _build(sim, _config())
    hints.good = False
    mntp.start()
    sim.run_until(60.0)
    assert mntp.deferral_count > 0
    assert net.client.queries_sent == 0
    # Channel recovers: queries flow.
    hints.good = True
    sim.run_until(120.0)
    assert net.client.queries_sent > 0


def test_hint_gate_disabled_never_defers():
    sim = Simulator(seed=1)
    net, hints, mntp = _build(sim, _config(enable_hint_gate=False))
    hints.good = False
    mntp.start()
    sim.run_until(60.0)
    assert mntp.deferral_count == 0
    assert net.client.queries_sent > 0


def test_falseticker_rejected_in_warmup():
    sim = Simulator(seed=1)
    net, hints, mntp = _build(sim, _config(), falseticker=True)
    mntp.start()
    sim.run_until(119.0)
    false_tickers = sim.trace.select(component="mntp", kind="false_ticker")
    assert false_tickers
    assert all(r.data["source"] == "3.pool.ntp.org" for r in false_tickers)
    # Accepted warm-up offsets stay near zero despite the 400 ms liar.
    for report in mntp.accepted_offsets():
        assert abs(report.offset) < 0.050


def test_drift_estimated_and_corrected():
    sim = Simulator(seed=1)
    clock = None
    sim2 = Simulator(seed=1)
    clock = drifting_clock(sim2, skew_ppm=30.0, stream="tn")
    net, hints, mntp = _build(sim2, _config(), clock=clock)
    mntp.start()
    sim2.run_until(130.0)
    assert mntp.drift_estimate is not None
    # Offset slope is -(local skew): -30 ppm.
    assert mntp.drift_estimate == pytest.approx(-30e-6, rel=0.4)
    corrected = sim2.trace.select(component="mntp", kind="drift_corrected")
    assert corrected
    # Frequency trim cancels the skew.
    assert clock.frequency_adjustment_ppm == pytest.approx(-30.0, rel=0.4)


def test_drift_correction_can_be_disabled():
    sim = Simulator(seed=1)
    clock = drifting_clock(sim, skew_ppm=30.0, stream="tn")
    net, hints, mntp = _build(
        sim, _config(enable_drift_correction=False), clock=clock
    )
    mntp.start()
    sim.run_until(130.0)
    assert clock.frequency_adjustment_ppm == 0.0


def test_regular_phase_corrects_clock():
    sim = Simulator(seed=1)
    clock = drifting_clock(sim, skew_ppm=0.0, offset=0.040, stream="tn")
    net, hints, mntp = _build(sim, _config(), clock=clock)
    mntp.start()
    sim.run_until(400.0)
    corrections = sim.trace.select(component="mntp", kind="clock_corrected")
    assert corrections
    assert abs(clock.true_offset()) < 0.020


def test_measurement_only_mode_never_touches_clock():
    sim = Simulator(seed=1)
    clock = drifting_clock(sim, skew_ppm=0.0, offset=0.040, stream="tn")
    net, hints, mntp = _build(
        sim,
        _config(enable_clock_correction=False, enable_drift_correction=False),
        clock=clock,
    )
    mntp.start()
    sim.run_until(400.0)
    assert clock.true_offset() == pytest.approx(0.040, abs=1e-6)
    assert clock.step_count == 0


def test_reset_restarts_warmup():
    sim = Simulator(seed=1)
    net, hints, mntp = _build(sim, _config(reset_period=300.0))
    mntp.start()
    sim.run_until(700.0)
    assert mntp.reset_count >= 1
    resets = sim.trace.select(component="mntp", kind="reset")
    assert len(resets) == mntp.reset_count


def test_stop_halts_queries():
    sim = Simulator(seed=1)
    net, hints, mntp = _build(sim, _config())
    mntp.start()
    sim.run_until(50.0)
    mntp.stop()
    count = net.client.queries_sent
    sim.run_until(500.0)
    assert net.client.queries_sent <= count + 3  # only in-flight round
    assert mntp.phase is MntpPhase.STOPPED


def test_reports_carry_phase_and_residual():
    sim = Simulator(seed=1)
    net, hints, mntp = _build(sim, _config())
    mntp.start()
    sim.run_until(400.0)
    phases = {r.phase for r in mntp.reports}
    assert MntpPhase.WARMUP in phases
    assert MntpPhase.REGULAR in phases
    post_bootstrap = [r for r in mntp.reports if r.residual is not None]
    assert post_bootstrap


def test_on_report_callback_invoked():
    sim = Simulator(seed=1)
    net, hints, mntp = _build(sim, _config())
    seen = []
    mntp.on_report = seen.append
    mntp.start()
    sim.run_until(100.0)
    assert len(seen) == len(mntp.reports)
