"""FaultInjector unit tests: link effects, server state, suspend."""

import pytest

from repro.faults.injectors import FaultInjector
from repro.faults.schedule import FaultEpisode, FaultKind, FaultSchedule
from repro.net.link import LinkEffect
from repro.ntp.server import NtpServer, ServerConfig
from repro.simcore.simulator import Simulator
from tests.ntp.helpers import perfect_clock


def _injector(sim, *episodes, name="test"):
    return FaultInjector(sim, FaultSchedule(episodes=list(episodes), name=name))


def _run_to(sim, t):
    sim.run_until(t)


def test_blackout_drops_matching_packets_only_in_window():
    sim = Simulator(seed=1)
    inj = _injector(sim, FaultEpisode(FaultKind.BLACKOUT, start=10.0, duration=5.0))
    inj.install({})
    hook = inj.wrap_hook(None, "up", "srv#0")
    _run_to(sim, 5.0)
    assert not hook().lost
    _run_to(sim, 12.0)
    assert hook().lost
    _run_to(sim, 16.0)
    assert not hook().lost


def test_direction_and_target_filters_apply():
    sim = Simulator(seed=1)
    inj = _injector(sim, FaultEpisode(
        FaultKind.DELAY_SURGE, start=0.0, duration=10.0,
        target="a.pool", direction="down", params={"delay_s": 0.5},
    ))
    inj.install({})
    _run_to(sim, 1.0)
    down_a = inj.wrap_hook(None, "down", "a.pool#1")
    up_a = inj.wrap_hook(None, "up", "a.pool#1")
    down_b = inj.wrap_hook(None, "down", "b.pool#1")
    assert down_a().extra_delay == pytest.approx(0.5)
    assert up_a().extra_delay == 0.0
    assert down_b().extra_delay == 0.0


def test_wrapped_hook_preserves_base_effect():
    sim = Simulator(seed=1)
    inj = _injector(sim, FaultEpisode(
        FaultKind.DELAY_SURGE, start=0.0, duration=10.0, params={"delay_s": 0.2},
    ))
    inj.install({})
    _run_to(sim, 1.0)
    hook = inj.wrap_hook(lambda: LinkEffect(extra_delay=0.1), "up", "srv")
    assert hook().extra_delay == pytest.approx(0.3)


def test_server_step_applies_and_reverts_clock_bias():
    sim = Simulator(seed=1)
    server = NtpServer(sim, perfect_clock(sim, stream="srv"),
                       ServerConfig(name="srv"))
    inj = _injector(sim, FaultEpisode(
        FaultKind.SERVER_STEP, start=5.0, duration=10.0,
        target="srv", params={"step_s": 0.5},
    ))
    inj.install({"srv": server})
    _run_to(sim, 1.0)
    assert server.faults.bias(sim.now) == 0.0
    _run_to(sim, 6.0)
    assert server.faults.bias(sim.now) == pytest.approx(0.5)
    _run_to(sim, 20.0)
    assert server.faults.bias(sim.now) == pytest.approx(0.0)


def test_server_drift_accrues_then_reverts_to_zero():
    sim = Simulator(seed=1)
    server = NtpServer(sim, perfect_clock(sim, stream="srv"),
                       ServerConfig(name="srv"))
    inj = _injector(sim, FaultEpisode(
        FaultKind.SERVER_DRIFT, start=10.0, duration=100.0,
        target="srv", params={"rate_s_per_s": 0.001},
    ))
    inj.install({"srv": server})
    _run_to(sim, 60.0)
    assert server.faults.bias(sim.now) == pytest.approx(0.05)  # 50 s * 1 ms/s
    _run_to(sim, 200.0)
    assert server.faults.bias(sim.now) == pytest.approx(0.0, abs=1e-12)


def test_protocol_fault_depths_toggle():
    sim = Simulator(seed=1)
    server = NtpServer(sim, perfect_clock(sim, stream="srv"),
                       ServerConfig(name="srv"))
    inj = _injector(
        sim,
        FaultEpisode(FaultKind.KOD_STORM, start=1.0, duration=2.0, target="srv"),
        FaultEpisode(FaultKind.SERVER_UNSYNC, start=1.0, duration=4.0, target="srv"),
        FaultEpisode(FaultKind.ZERO_TRANSMIT, start=2.0, duration=1.0, target="srv"),
        FaultEpisode(FaultKind.SERVER_DEATH, start=5.0, duration=1.0, target="srv"),
    )
    inj.install({"srv": server})
    _run_to(sim, 2.5)
    assert server.faults.kod_storm == 1
    assert server.faults.unsynchronized == 1
    assert server.faults.zero_transmit == 1
    _run_to(sim, 5.5)
    assert server.faults.kod_storm == 0
    assert server.faults.zero_transmit == 0
    assert server.faults.unsynchronized == 0
    assert server.faults.dead == 1
    _run_to(sim, 7.0)
    assert server.faults.dead == 0


def test_install_twice_is_an_error():
    sim = Simulator(seed=1)
    inj = _injector(sim)
    inj.install({})
    with pytest.raises(RuntimeError):
        inj.install({})


def test_suspend_tracks_node_and_emits_drop_record():
    sim = Simulator(seed=1)
    inj = _injector(sim, FaultEpisode(
        FaultKind.SUSPEND, start=10.0, duration=5.0, target="tn",
    ))
    inj.install({})
    _run_to(sim, 11.0)
    assert inj.node_suspended("tn")
    assert not inj.node_suspended("mn")
    inj.record_suspend_drop("tn", "client/7", ident=42)
    records = sim.trace.select(kind="drop")
    assert records and records[-1].data["cause"] == "suspend"
    assert records[-1].data["trace_id"] == "client/7"
    _run_to(sim, 16.0)
    assert not inj.node_suspended("tn")


def test_burst_loss_is_seed_deterministic():
    def outcomes(seed):
        sim = Simulator(seed=seed)
        inj = _injector(sim, FaultEpisode(
            FaultKind.BURST_LOSS, start=0.0, duration=100.0,
            params={"loss_rate": 0.5},
        ))
        inj.install({})
        hook = inj.wrap_hook(None, "up", "srv")
        sim.run_until(1.0)
        return [hook().lost for _ in range(32)]

    assert outcomes(3) == outcomes(3)
    assert outcomes(3) != outcomes(4)  # statistically certain for 32 draws


def test_episode_spans_are_emitted():
    sim = Simulator(seed=1)
    inj = _injector(sim, FaultEpisode(
        FaultKind.BLACKOUT, start=1.0, duration=2.0,
    ))
    inj.install({})
    sim.run_until(5.0)
    sim.telemetry.spans.end_all()
    snapshot = sim.telemetry.snapshot()
    spans = [
        r for r in snapshot["records"]
        if r.component == "span" and r.kind == "fault.episode"
    ]
    assert len(spans) == 1
    assert spans[0].data["fault"] == "blackout"
    assert spans[0].data["t1"] == pytest.approx(3.0)


def test_fault_episodes_visible_in_causal_exchanges():
    from repro.obs.causal import assemble_exchanges
    from repro.ntp.sntp_client import HardeningPolicy
    from repro.testbed.experiment import ExperimentRunner
    from repro.testbed.nodes import TestbedOptions

    schedule = FaultSchedule(episodes=[
        FaultEpisode(FaultKind.SERVER_STEP, start=100.0, duration=50.0,
                     target="0.pool.ntp.org", params={"step_s": 0.5}),
    ])
    result = ExperimentRunner(
        seed=0,
        options=TestbedOptions(
            wireless=False, ntp_correction=False, monitor_active=False,
            fault_schedule=schedule, mntp_hardening=HardeningPolicy(),
        ),
        duration=200.0,
    ).run()
    exchanges = assemble_exchanges(result.telemetry)
    overlapping = [e for e in exchanges if 100.0 <= e.t0 < 150.0]
    assert overlapping
    for exchange in overlapping:
        assert any(f.fault == "server_step" for f in exchange.faults)
    outside = [e for e in exchanges if e.t1 < 100.0]
    assert outside and all(not e.faults for e in outside)
