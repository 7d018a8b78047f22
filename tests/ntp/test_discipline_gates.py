"""Unit tests for the discipline daemon's protective gates."""

import pytest

from repro.clock.discipline_api import ClockCorrector
from repro.ntp.discipline import ClockDiscipline, DisciplineParams
from repro.ntp.server import ServerConfig, ServerPersona
from repro.simcore.simulator import Simulator
from tests.ntp.helpers import MiniNet, drifting_clock


def test_no_majority_traced():
    sim = Simulator(seed=1)
    clock = drifting_clock(sim, skew_ppm=0.0, stream="c")
    configs = [
        ServerConfig(name=f"liar{i}", persona=ServerPersona.FALSETICKER,
                     falseticker_bias=(i + 1) * 2.0, processing_delay=1e-6)
        for i in range(4)
    ]
    net = MiniNet(sim, configs, client_clock=clock)
    d = ClockDiscipline(sim, net.client, ClockCorrector(clock),
                        [c.name for c in configs])
    d.start()
    sim.run_until(120.0)
    assert sim.trace.select(component="ntpd", kind="no_majority")
    assert d.updates == 0


def test_delay_gate_skips_inflated_samples():
    """Manually drive _update_clock with a clean then inflated sample."""
    from repro.ntp.wire import OffsetSample

    sim = Simulator(seed=1)
    clock = drifting_clock(sim, skew_ppm=0.0, stream="c")
    net = MiniNet(sim, [ServerConfig(name="s", processing_delay=1e-6)],
                  client_clock=clock)
    d = ClockDiscipline(sim, net.client, ClockCorrector(clock), ["s"])

    def sample(offset, delay):
        return OffsetSample(offset=offset, delay=delay,
                            t1=0, t2=0, t3=0, t4=0)

    # Establish the delay floor with clean samples.
    for _ in range(3):
        d._update_clock([("s", sample(0.001, 0.040))])
    updates = d.updates
    # A sample whose delay blew up 10x carries too much asymmetry risk.
    d._update_clock([("s", sample(0.400, 0.400))])
    assert d.updates == updates
    assert d.delay_gate_skips == 1
    assert sim.trace.select(component="ntpd", kind="delay_gate_skip")


def test_delay_floor_adapts_upward_slowly():
    from repro.ntp.wire import OffsetSample

    sim = Simulator(seed=1)
    clock = drifting_clock(sim, skew_ppm=0.0, stream="c")
    net = MiniNet(sim, [ServerConfig(name="s")], client_clock=clock)
    d = ClockDiscipline(sim, net.client, ClockCorrector(clock), ["s"])

    def sample(delay):
        return OffsetSample(offset=0.0, delay=delay, t1=0, t2=0, t3=0, t4=0)

    d._update_clock([("s", sample(0.010))])
    floor_before = d._min_delay
    # Many slightly-higher samples: the floor creeps up by the 1.002
    # factor, it does not jump.
    for _ in range(20):
        d._update_clock([("s", sample(0.012))])
    assert d._min_delay > floor_before
    assert d._min_delay <= 0.012


def test_popcorn_stepout_eventually_accepts_real_step():
    """A genuine clock step (normal delay, persistent offset) is
    accepted once the step-out expires."""
    from repro.ntp.wire import OffsetSample

    sim = Simulator(seed=1)
    clock = drifting_clock(sim, skew_ppm=0.0, stream="c")
    net = MiniNet(sim, [ServerConfig(name="s")], client_clock=clock)
    params = DisciplineParams(stepout=100.0)
    d = ClockDiscipline(sim, net.client, ClockCorrector(clock), ["s"], params)

    def sample(offset):
        return OffsetSample(offset=offset, delay=0.040, t1=0, t2=0, t3=0, t4=0)

    d._update_clock([("s", sample(0.001))])
    assert d.updates == 1
    # The reference stepped by 2 s; normal delays, persistent offset
    # (measured relative to the client clock, as on the real wire).
    for i in range(12):
        sim.run_until(sim.now + 16.0)
        d._update_clock([("s", sample(2.0 - clock.true_offset()))])
        if d.steps >= 1:
            break
    assert d.updates >= 2  # accepted after the 100 s step-out
    assert d.steps >= 1
    assert abs(clock.true_offset() - 2.0) < 0.1
