"""Clock discipline end-to-end behaviour."""

import pytest

from repro.clock.discipline_api import ClockCorrector
from repro.ntp.discipline import ClockDiscipline, DisciplineParams
from repro.ntp.server import ServerConfig, ServerPersona
from repro.simcore.simulator import Simulator
from tests.ntp.helpers import MiniNet, drifting_clock


def _build(sim, client_clock, server_configs, params=None):
    net = MiniNet(sim, server_configs, client_clock=client_clock,
                  owd=0.020)
    corrector = ClockCorrector(client_clock)
    discipline = ClockDiscipline(
        sim,
        net.client,
        corrector,
        [c.name for c in server_configs],
        params or DisciplineParams(),
    )
    return net, discipline


def _honest(n):
    return [ServerConfig(name=f"s{i}", processing_delay=1e-6) for i in range(n)]


def test_large_initial_offset_stepped():
    sim = Simulator(seed=1)
    clock = drifting_clock(sim, skew_ppm=0.0, offset=5.0, stream="c")
    net, discipline = _build(sim, clock, _honest(4))
    discipline.start()
    sim.run_until(120.0)
    assert discipline.steps >= 1
    assert abs(clock.true_offset()) < 0.050


def test_constant_skew_trimmed_out():
    sim = Simulator(seed=1)
    clock = drifting_clock(sim, skew_ppm=20.0, stream="c")
    net, discipline = _build(sim, clock, _honest(4))
    discipline.start()
    sim.run_until(3600.0)
    # The frequency trim should have cancelled most of the 20 ppm.
    assert clock.frequency_adjustment_ppm == pytest.approx(-20.0, abs=6.0)
    assert abs(clock.true_offset()) < 0.010


def test_falseticker_outvoted():
    sim = Simulator(seed=1)
    clock = drifting_clock(sim, skew_ppm=0.0, offset=0.0, stream="c")
    configs = _honest(3) + [
        ServerConfig(
            name="liar", persona=ServerPersona.FALSETICKER,
            falseticker_bias=0.4, processing_delay=1e-6,
        )
    ]
    net, discipline = _build(sim, clock, configs)
    discipline.start()
    sim.run_until(1800.0)
    # The liar's 400 ms bias must not drag the clock.
    assert abs(clock.true_offset()) < 0.020


def test_poll_interval_backs_off_when_stable():
    sim = Simulator(seed=1)
    clock = drifting_clock(sim, skew_ppm=0.0, stream="c")
    net, discipline = _build(sim, clock, _honest(4))
    discipline.start()
    sim.run_until(1800.0)
    assert discipline.poll_exp > DisciplineParams().min_poll_exp


def test_requires_servers():
    sim = Simulator(seed=1)
    clock = drifting_clock(sim, skew_ppm=0.0, stream="c")
    with pytest.raises(ValueError):
        ClockDiscipline(sim, None, None, [])


def test_stop_halts_polling():
    sim = Simulator(seed=1)
    clock = drifting_clock(sim, skew_ppm=0.0, stream="c")
    net, discipline = _build(sim, clock, _honest(3))
    discipline.start()
    sim.run_until(100.0)
    updates = discipline.updates
    discipline.stop()
    sim.run_until(2000.0)
    assert discipline.updates <= updates + 1  # at most the in-flight round


def test_updates_traced():
    sim = Simulator(seed=1)
    clock = drifting_clock(sim, skew_ppm=5.0, stream="c")
    net, discipline = _build(sim, clock, _honest(4))
    discipline.start()
    sim.run_until(300.0)
    assert len(sim.trace.select(component="ntpd", kind="update")) == discipline.updates


def test_popcorn_gate_skips_burst():
    """Inject a one-off biased sample via a noisy server population and
    verify the gate counts skips without the clock jumping."""
    sim = Simulator(seed=2)
    clock = drifting_clock(sim, skew_ppm=0.0, stream="c")
    configs = [
        ServerConfig(name=f"s{i}", persona=ServerPersona.NOISY,
                     noisy_sigma=0.150, processing_delay=1e-6)
        for i in range(4)
    ]
    net, discipline = _build(sim, clock, configs)
    discipline.start()
    sim.run_until(3600.0)
    # With 150 ms-noise servers most rounds trip the gate; the clock
    # must not have been yanked to the noise scale.
    assert discipline.popcorn_skips > 0
    assert abs(clock.true_offset()) < 0.2
