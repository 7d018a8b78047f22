"""Run-health SLO judge: spec, state machine, faults, post-run judging."""

import io
import json
import math
from dataclasses import fields

import pytest

from repro.obs.health import (
    HEALTH_FORMAT,
    HealthMonitor,
    SloSpec,
    _p99,
    judge_health,
    recovered_transitions,
    render_health_text,
    smoke_spec,
)
from repro.obs.telemetry import snapshot_metric_names, snapshot_span_kinds
from repro.testbed.experiment import ExperimentResult, OffsetPoint
from repro.testbed.persistence import load_result, save_result
from repro.testbed.specs import run_scenario


# -- SloSpec --------------------------------------------------------------


def test_spec_json_round_trip():
    spec = SloSpec(window_s=120.0, drop_rate_warn_ratio=0.2)
    again = SloSpec.from_json(spec.to_json())
    assert again == spec
    assert json.loads(spec.to_json())["window_s"] == 120.0


def test_spec_unknown_fields_rejected():
    with pytest.raises(ValueError, match=r"slo: unknown keys \['p99_err_ms'\]"):
        SloSpec.from_dict({"window_s": 60.0, "p99_err_ms": 5.0})
    with pytest.raises(ValueError, match=r"slo: unknown keys \['drop_warn'\]"):
        SloSpec.from_json('{"drop_warn": 0.1}')


def test_spec_json_must_be_object():
    with pytest.raises(ValueError, match="slo: must be a JSON object, got list"):
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


@pytest.mark.parametrize("name", [f.name for f in fields(SloSpec)])
def test_spec_rejects_nan_in_every_field(name):
    # A NaN threshold never trips and a NaN window never prunes.
    with pytest.raises(ValueError, match=name):
        SloSpec(**{name: math.nan})
    with pytest.raises(ValueError, match=name):
        SloSpec.from_json(json.dumps({name: math.nan}))


@pytest.mark.parametrize("name", ["window_s", "eval_interval_s",
                                  "fault_grace_s"])
def test_spec_rejects_infinite_windows_and_grace(name):
    with pytest.raises(ValueError, match=name):
        SloSpec(**{name: math.inf})


@pytest.mark.parametrize("value", [2.5, 5.0, True, "5"])
def test_spec_rejects_non_integer_min_samples(value):
    with pytest.raises(ValueError, match="min_samples"):
        SloSpec(min_samples=value)


# -- p99 -------------------------------------------------------------------


@pytest.mark.parametrize("n,expected", [
    (1, 1.0), (50, 50.0), (60, 60.0), (99, 99.0), (100, 99.0), (101, 100.0),
    (200, 198.0),
])
def test_p99_is_nearest_rank(n, expected):
    # Nearest rank ceil(0.99 n): a 60-sample window's p99 is its worst.
    assert _p99([float(v) for v in range(n, 0, -1)]) == expected


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


# -- judging a finished run ----------------------------------------------


def violating_result(duration, windows=()):
    """A run whose every SNTP sample is 500 ms off (truth 0)."""
    points = [OffsetPoint(float(t), 0.5, 0.0) for t in range(0, int(duration), 5)]
    return ExperimentResult(
        sntp=points, duration=duration, fault_windows=list(windows)
    )


#: Every evaluation violates; no grace period after an episode.
SHARP = SloSpec(window_s=60.0, eval_interval_s=60.0, min_samples=1,
                fault_grace_s=0.0)


def test_fault_episode_after_duration_has_no_effect():
    plain, plain_rows = judge_health(violating_result(300.0), SHARP)
    late, late_rows = judge_health(
        violating_result(300.0, windows=[(310.0, 320.0)]), SHARP
    )
    assert (late, late_rows) == (plain, plain_rows)
    # Ticks at 60..240 plus the final evaluation at 300, all outside.
    assert late["evaluations"] == 5
    assert late["violations_outside_fault"] == 5


def test_episode_outlasting_duration_keeps_final_evaluation_in_fault():
    report, rows = judge_health(
        violating_result(300.0, windows=[(30.0, 400.0)]), SHARP
    )
    assert [row["t"] for row in rows] == [60.0, 120.0, 180.0, 240.0]
    assert all(row["in_fault_window"] for row in rows)
    assert report["violations_in_fault"] == 5
    assert report["violations_outside_fault"] == 0
    assert report["verdict"] == "pass"


def test_same_instant_order_faults_then_evaluation_then_exchanges():
    result = ExperimentResult(
        sntp=[OffsetPoint(60.0, 0.5, 0.0)],
        sntp_failure_times=[90.0],
        duration=90.0,
        fault_windows=[(60.0, 70.0)],
    )
    report, rows = judge_health(result, SHARP)
    # The t=60 evaluation sees the episode that opens at 60 but not the
    # exchange completing at 60; the final one (t=90) comes after every
    # event of its instant, so it sees both exchanges.
    assert rows == [{
        "t": 60.0, "state": "ok", "level": "ok", "signal": None,
        "in_fault_window": True,
        "signals": {"p99_abs_error_ms": None, "drop_rate_ratio": None,
                    "starvation_s": None, "exchange_rate_per_s": None},
    }]
    assert report["state"] == "violated"
    assert report["worst"]["drop_rate_ratio"] == 0.5
    assert report["transitions"][0]["t"] == 90.0
    assert report["transitions"][0]["in_fault_window"] is False


@pytest.fixture(scope="module")
def chaos_result():
    return run_scenario("chaos_smoke", seed=7)


def test_chaos_smoke_cycles_back_to_healthy(chaos_result):
    report, _rows = judge_health(chaos_result, smoke_spec())
    assert report["format"] == HEALTH_FORMAT
    assert report["verdict"] != "violated"
    assert recovered_transitions(report) >= 1
    assert report["violations_outside_fault"] == 0
    # The seeded fault matrix must actually stress the run.
    assert any(tr["in_fault_window"] for tr in report["transitions"])


def test_replay_agrees_with_live_verdict(chaos_result):
    # Judging the archived run (`repro-mntp health <archive>`) gives the
    # report and rows of judging the run it archived, byte for byte.
    buf = io.StringIO()
    save_result(chaos_result, buf)
    buf.seek(0)
    archived = load_result(buf)
    live = judge_health(chaos_result, smoke_spec())
    replayed = judge_health(archived, smoke_spec())
    assert json.dumps(replayed, sort_keys=True) == json.dumps(
        live, sort_keys=True
    )


def test_replay_is_deterministic(chaos_result):
    a = judge_health(chaos_result, smoke_spec())
    b = judge_health(chaos_result, smoke_spec())
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_same_seed_reports_identical(chaos_result):
    again = run_scenario("chaos_smoke", seed=7)
    assert json.dumps(
        judge_health(again, smoke_spec()), sort_keys=True
    ) == json.dumps(judge_health(chaos_result, smoke_spec()), sort_keys=True)


def test_unmonitored_run_has_no_health():
    # Runs are judged only after they finish: nothing health-related is
    # attached to the result or recorded in its telemetry.
    result = run_scenario("wired_corrected", seed=1)
    assert not hasattr(result, "health")
    assert not any(
        name.startswith("health") for name in
        snapshot_metric_names(result.telemetry)
        + snapshot_span_kinds(result.telemetry)
    )
