"""Run-health SLO monitor: spec, state machine, faults, replay."""

import json

import pytest

from repro.obs import (
    HEALTH_FORMAT,
    HealthMonitor,
    SloSpec,
    recovered_transitions,
    render_health_text,
    replay_health,
    smoke_spec,
)
from repro.testbed.specs import run_scenario


# -- SloSpec --------------------------------------------------------------


def test_spec_json_round_trip():
    spec = SloSpec(window_s=120.0, drop_rate_warn_ratio=0.2)
    again = SloSpec.from_json(spec.to_json())
    assert again == spec
    assert json.loads(spec.to_json())["window_s"] == 120.0


def test_spec_unknown_fields_rejected():
    with pytest.raises(ValueError, match="unknown SloSpec fields"):
        SloSpec.from_dict({"window_s": 60.0, "p99_err_ms": 5.0})
    with pytest.raises(ValueError, match="unknown SloSpec fields"):
        SloSpec.from_json('{"drop_warn": 0.1}')


def test_spec_json_must_be_object():
    with pytest.raises(ValueError, match="must be an object"):
        SloSpec.from_json("[1, 2]")


def test_spec_validation():
    with pytest.raises(ValueError, match="window_s"):
        SloSpec(window_s=0.0)
    with pytest.raises(ValueError, match="eval_interval_s"):
        SloSpec(eval_interval_s=-1.0)
    with pytest.raises(ValueError, match="min_samples"):
        SloSpec(min_samples=0)
    with pytest.raises(ValueError, match="must not exceed"):
        SloSpec(p99_abs_error_warn_ms=300.0, p99_abs_error_violate_ms=200.0)
    with pytest.raises(ValueError, match="lower rates are worse"):
        SloSpec(
            exchange_rate_warn_per_s=0.1, exchange_rate_violate_per_s=0.5
        )


# -- state machine over synthetic feeds -----------------------------------


def drive(monitor, t0, n, ok=True, error_s=0.001, client="c0", dt=1.0):
    for i in range(n):
        monitor.observe_exchange(
            t0 + i * dt, client, ok, offset_s=error_s, error_s=error_s
        )


def test_ok_run_stays_ok():
    monitor = HealthMonitor(SloSpec(window_s=60.0, eval_interval_s=10.0))
    drive(monitor, 0.0, 30)
    monitor.evaluate(30.0)
    assert monitor.state == "ok"
    report = monitor.report()
    assert report["format"] == HEALTH_FORMAT
    assert report["verdict"] == "pass"
    assert report["transitions"] == []
    assert "stayed ok" in render_health_text(report)


def test_drop_rate_degrades_then_recovers():
    spec = SloSpec(window_s=30.0, eval_interval_s=10.0, min_samples=5)
    monitor = HealthMonitor(spec)
    drive(monitor, 0.0, 10)
    monitor.evaluate(10.0)
    assert monitor.state == "ok"
    # 50% failures in the window: past warn (0.10), below violate (0.50).
    drive(monitor, 10.0, 5, ok=True)
    drive(monitor, 15.0, 5, ok=False)
    monitor.evaluate(20.0)
    assert monitor.state == "degraded"
    # Window slides clean again: degraded -> recovered -> ok.
    drive(monitor, 20.0, 40)
    monitor.evaluate(60.0)
    assert monitor.state == "recovered"
    monitor.evaluate(70.0)
    assert monitor.state == "ok"
    report = monitor.report()
    assert report["verdict"] == "degraded"  # outside any fault window
    assert report["transition_counts"] == {
        "degraded->recovered": 1, "ok->degraded": 1, "recovered->ok": 1,
    }
    assert recovered_transitions(report) == 1


def test_p99_error_violates():
    spec = SloSpec(window_s=60.0, eval_interval_s=10.0, min_samples=5)
    monitor = HealthMonitor(spec)
    drive(monitor, 0.0, 10, error_s=0.5)  # 500 ms >> violate (200 ms)
    monitor.evaluate(10.0)
    assert monitor.state == "violated"
    report = monitor.report()
    assert report["verdict"] == "violated"
    assert report["violations_outside_fault"] == 1
    assert report["transitions"][0]["signal"] == "p99_abs_error_ms"
    assert report["worst"]["p99_abs_error_ms"] == pytest.approx(500.0)


def test_starvation_signal():
    spec = SloSpec(window_s=1000.0, eval_interval_s=100.0, min_samples=1)
    monitor = HealthMonitor(spec)
    monitor.observe_exchange(0.0, "c0", True, offset_s=0.001)
    monitor.observe_exchange(0.0, "c1", True, offset_s=0.001)
    # c1 keeps syncing; c0 starves past warn (120 s).
    for t in range(100, 500, 100):
        monitor.observe_exchange(float(t), "c1", True, offset_s=0.001)
        monitor.evaluate(float(t))
    assert monitor.state == "degraded"
    assert monitor.report()["worst"]["starvation_s"] == pytest.approx(400.0)


def test_exchange_rate_signal_opt_in():
    quiet = SloSpec(window_s=100.0, eval_interval_s=50.0, min_samples=2)
    monitor = HealthMonitor(quiet)
    drive(monitor, 0.0, 4, dt=25.0)  # 0.04/s, but the signal is off
    monitor.evaluate(100.0)
    assert monitor.state == "ok"
    rated = SloSpec(
        window_s=100.0, eval_interval_s=50.0, min_samples=2,
        exchange_rate_warn_per_s=1.0, exchange_rate_violate_per_s=0.5,
    )
    monitor = HealthMonitor(rated)
    drive(monitor, 0.0, 4, dt=25.0)
    monitor.evaluate(100.0)
    assert monitor.state == "violated"
    assert monitor.report()["transitions"][0]["signal"] == (
        "exchange_rate_per_s"
    )


def test_fault_window_annotates_and_excuses():
    spec = SloSpec(
        window_s=60.0, eval_interval_s=10.0, min_samples=5,
        fault_grace_s=20.0,
    )
    monitor = HealthMonitor(spec)
    monitor.fault_begin(0.0)
    drive(monitor, 0.0, 10, error_s=0.5)
    monitor.evaluate(10.0)
    monitor.fault_end(12.0)
    assert monitor.state == "violated"
    # Still inside the grace period at t=30 (12 + 20 >= 30? no: 32 >= 30).
    assert monitor.in_fault_window(30.0)
    assert not monitor.in_fault_window(33.0)
    report = monitor.report()
    assert report["verdict"] == "pass"  # violation fell inside the episode
    assert report["violations_in_fault"] == 1
    assert report["violations_outside_fault"] == 0
    assert report["transitions"][0]["in_fault_window"] is True


def test_report_round_trips_as_json():
    monitor = HealthMonitor(SloSpec(window_s=30.0, eval_interval_s=10.0))
    drive(monitor, 0.0, 10)
    monitor.evaluate(10.0)
    report = monitor.report()
    assert json.loads(json.dumps(report, sort_keys=True)) == report
    assert report["spec"] == monitor.spec.to_dict()


# -- live scenario + replay determinism -----------------------------------


@pytest.fixture(scope="module")
def chaos_result():
    return run_scenario("chaos_smoke", seed=7, health_spec=smoke_spec())


def test_chaos_smoke_cycles_back_to_healthy(chaos_result):
    report = chaos_result.health
    assert report is not None
    assert report["format"] == HEALTH_FORMAT
    assert report["verdict"] != "violated"
    assert recovered_transitions(report) >= 1
    assert report["violations_outside_fault"] == 0
    # The seeded fault matrix must actually stress the run.
    assert any(tr["in_fault_window"] for tr in report["transitions"])


def test_replay_agrees_with_live_verdict(chaos_result):
    # The live feed judges poll outcomes + MNTP reports; the replay
    # judges every archived sntp.exchange span (MNTP's per-server
    # queries included), so the two see different exchange counts —
    # but both must reach the same verdict on the same run, with the
    # fault episodes excusing the same in-window violations.
    monitor = replay_health(
        chaos_result.telemetry,
        samples=chaos_result.offset_samples(),
        spec=smoke_spec(),
    )
    replayed = monitor.report()
    assert replayed["format"] == HEALTH_FORMAT
    assert replayed["verdict"] == chaos_result.health["verdict"]
    assert replayed["violations_outside_fault"] == 0
    assert recovered_transitions(replayed) >= 1


def test_replay_is_deterministic(chaos_result):
    a = replay_health(
        chaos_result.telemetry, samples=chaos_result.offset_samples(),
        spec=smoke_spec(),
    ).report()
    b = replay_health(
        chaos_result.telemetry, samples=chaos_result.offset_samples(),
        spec=smoke_spec(),
    ).report()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_health_transitions_land_in_telemetry(chaos_result):
    spans = [
        r for r in chaos_result.telemetry["records"]
        if r["component"] == "span" and r["kind"] == "health.transition"
    ]
    assert len(spans) == len(chaos_result.health["transitions"])
    for span, tr in zip(spans, chaos_result.health["transitions"]):
        assert span["data"]["to_state"] == tr["to"]
        assert span["data"]["from_state"] == tr["from"]


def test_same_seed_reports_identical(chaos_result):
    again = run_scenario("chaos_smoke", seed=7, health_spec=smoke_spec())
    assert again.health == chaos_result.health
    # ... and the replayed reports of the two archives are identical
    # too (the "same seed, same report, byte for byte" claim).
    replay_a = replay_health(
        chaos_result.telemetry, samples=chaos_result.offset_samples(),
        spec=smoke_spec(),
    ).report()
    replay_b = replay_health(
        again.telemetry, samples=again.offset_samples(), spec=smoke_spec()
    ).report()
    assert json.dumps(replay_a, sort_keys=True) == json.dumps(
        replay_b, sort_keys=True
    )


def test_unmonitored_run_has_no_health():
    result = run_scenario("wired_corrected", seed=1)
    assert result.health is None
