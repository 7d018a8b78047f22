"""Run-health SLO judge: spec, state machine, faults, post-run judging."""

import io
import json
import math
from dataclasses import fields

import pytest

from repro.core.protocol import MntpPhase, MntpReport
from repro.obs.health import (
    HEALTH_FORMAT,
    SloSpec,
    _p99,
    judge_health,
    render_health_text,
)
from repro.obs.telemetry import snapshot_span_kinds
from repro.testbed.experiment import ExperimentResult, OffsetPoint
from repro.testbed.persistence import load_result, save_result
from repro.testbed.specs import load_scenario, run_scenario


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


# -- state machine over hand-built runs ----------------------------------


def run_of(duration, errors=(), failures=(), mntp=(), windows=()):
    """A finished run: SNTP points ``(t, error_s)`` (truth 0), SNTP
    failure times, accepted MNTP reports ``(t, error_s)`` and fault
    windows."""
    return ExperimentResult(
        sntp=[OffsetPoint(float(t), error, 0.0) for t, error in errors],
        sntp_failure_times=[float(t) for t in failures],
        mntp_reports=[
            MntpReport(float(t), error, True, MntpPhase.REGULAR, truth=0.0)
            for t, error in mntp
        ],
        duration=duration,
        fault_windows=list(windows),
    )


def steady(t0, t1, error_s=0.001):
    """One SNTP point a second over ``[t0, t1)``."""
    return [(t, error_s) for t in range(t0, t1)]


def test_ok_run_stays_ok():
    spec = SloSpec(window_s=60.0, eval_interval_s=10.0)
    report = judge_health(run_of(30.0, errors=steady(0, 30)), spec)
    assert report["format"] == HEALTH_FORMAT
    assert report["state"] == "ok"
    assert report["verdict"] == "pass"
    assert report["evaluations"] == 3  # ticks at 10 and 20, final at 30
    assert report["transitions"] == []
    assert "stayed ok" in render_health_text(report)


def test_drop_rate_degrades_then_recovers():
    spec = SloSpec(window_s=30.0, eval_interval_s=10.0, min_samples=5)
    # 5 failures among 20 attempts by t=20: past warn (0.10), below
    # violate (0.50).  The window slides clean again by t=50.
    run = run_of(
        80.0, errors=steady(0, 15) + steady(20, 80), failures=range(15, 20)
    )
    report = judge_health(run, spec)
    assert [(tr["t"], tr["to"]) for tr in report["transitions"]] == [
        (20.0, "degraded"), (50.0, "recovered"), (60.0, "ok"),
    ]
    assert report["transitions"][0]["signal"] == "drop_rate_ratio"
    assert report["transitions"][0]["value"] == 0.25
    assert report["state"] == "ok"
    assert report["verdict"] == "degraded"  # outside any fault window
    assert report["transition_counts"] == {
        "degraded->recovered": 1, "ok->degraded": 1, "recovered->ok": 1,
    }


def test_p99_error_violates():
    spec = SloSpec(window_s=60.0, eval_interval_s=10.0, min_samples=5)
    # 500 ms >> violate (200 ms); the one evaluation is the final one.
    report = judge_health(run_of(10.0, errors=steady(0, 10, 0.5)), spec)
    assert report["state"] == "violated"
    assert report["verdict"] == "violated"
    assert report["evaluations"] == 1
    assert report["violations_outside_fault"] == 1
    assert report["transitions"][0]["signal"] == "p99_abs_error_ms"
    assert report["worst"]["p99_abs_error_ms"] == pytest.approx(500.0)


def test_starvation_signal():
    spec = SloSpec(window_s=1000.0, eval_interval_s=100.0, min_samples=1)
    # MNTP keeps syncing; SNTP's one sample at t=0 starves past warn
    # (120 s).
    run = run_of(
        400.0, errors=[(0, 0.001)],
        mntp=[(t, 0.001) for t in range(0, 500, 100)],
    )
    report = judge_health(run, spec)
    assert report["state"] == "degraded"
    assert report["transitions"][0]["t"] == 200.0
    assert report["transitions"][0]["signal"] == "starvation_s"
    assert report["worst"]["starvation_s"] == pytest.approx(400.0)


@pytest.mark.parametrize("grace_s,in_fault,outside", [
    (18.0, 3, 1),  # t=30 is exactly end + grace: still in the window
    (17.9, 2, 2),  # t=30 falls just past the grace period
])
def test_fault_window_annotates_with_its_grace_edge(grace_s, in_fault, outside):
    spec = SloSpec(
        window_s=60.0, eval_interval_s=10.0, min_samples=5,
        fault_grace_s=grace_s,
    )
    run = run_of(40.0, errors=steady(0, 40, 0.5), windows=[(0.0, 12.0)])
    report = judge_health(run, spec)
    # Every evaluation (t = 10, 20, 30 and the final 40) violates.
    assert report["violations_in_fault"] == in_fault
    assert report["violations_outside_fault"] == outside
    assert report["verdict"] == "violated"
    assert report["transitions"][0]["in_fault_window"] is True


def test_fault_window_annotates_and_excuses():
    spec = SloSpec(
        window_s=60.0, eval_interval_s=10.0, min_samples=5,
        fault_grace_s=20.0,
    )
    run = run_of(30.0, errors=steady(0, 30, 0.5), windows=[(0.0, 12.0)])
    report = judge_health(run, spec)
    assert report["state"] == "violated"
    assert report["verdict"] == "pass"  # every violation fell in the episode
    assert report["violations_in_fault"] == 3
    assert report["violations_outside_fault"] == 0
    assert report["transitions"][0]["in_fault_window"] is True


def test_report_round_trips_as_json():
    spec = SloSpec(window_s=30.0, eval_interval_s=10.0)
    report = judge_health(run_of(10.0, errors=steady(0, 10)), spec)
    assert json.loads(json.dumps(report, sort_keys=True)) == report
    assert report["spec"] == spec.to_dict()


# -- edges of a finished run ---------------------------------------------


def violating_result(duration, windows=()):
    """A run whose every SNTP sample is 500 ms off (truth 0)."""
    return run_of(
        duration, errors=[(t, 0.5) for t in range(0, int(duration), 5)],
        windows=windows,
    )


#: Every evaluation violates; no grace period after an episode.
SHARP = SloSpec(window_s=60.0, eval_interval_s=60.0, min_samples=1,
                fault_grace_s=0.0)


def test_fault_episode_after_duration_has_no_effect():
    plain = judge_health(violating_result(300.0), SHARP)
    late = judge_health(violating_result(300.0, windows=[(310.0, 320.0)]), SHARP)
    assert late == plain
    # Ticks at 60..240 plus the final evaluation at 300, all outside.
    assert late["evaluations"] == 5
    assert late["violations_outside_fault"] == 5


def test_episode_outlasting_duration_keeps_final_evaluation_in_fault():
    report = judge_health(
        violating_result(300.0, windows=[(30.0, 400.0)]), SHARP
    )
    assert report["evaluations"] == 5
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
    report = judge_health(result, SHARP)
    # The t=60 evaluation sees the episode that opens at 60 but not the
    # exchange completing at 60, so nothing trips there; the final one
    # (t=90) sees every exchange, including both at its own instant.
    assert report["evaluations"] == 2
    assert [tr["t"] for tr in report["transitions"]] == [90.0]
    assert report["transitions"][0]["in_fault_window"] is False
    assert report["state"] == "violated"
    assert report["worst"]["drop_rate_ratio"] == 0.5


@pytest.fixture(scope="module")
def chaos_result():
    return run_scenario("chaos_smoke", seed=7)


@pytest.fixture(scope="module")
def smoke_slo():
    return load_scenario("chaos_smoke").guarantees


def test_chaos_smoke_cycles_back_to_healthy(chaos_result, smoke_slo):
    report = judge_health(chaos_result, smoke_slo)
    assert report["format"] == HEALTH_FORMAT
    assert report["verdict"] != "violated"
    assert any(tr["to"] == "recovered" for tr in report["transitions"])
    assert report["violations_outside_fault"] == 0
    # The seeded fault matrix must actually stress the run.
    assert any(tr["in_fault_window"] for tr in report["transitions"])


def test_replay_agrees_with_live_verdict(chaos_result, smoke_slo):
    # Judging the archived run (`repro-mntp health <archive>`) gives the
    # report of judging the run it archived, byte for byte.
    buf = io.StringIO()
    save_result(chaos_result, buf)
    buf.seek(0)
    archived = load_result(buf)
    live = judge_health(chaos_result, smoke_slo)
    replayed = judge_health(archived, smoke_slo)
    assert json.dumps(replayed, sort_keys=True) == json.dumps(
        live, sort_keys=True
    )


def test_replay_is_deterministic(chaos_result, smoke_slo):
    a = judge_health(chaos_result, smoke_slo)
    b = judge_health(chaos_result, smoke_slo)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_same_seed_reports_identical(chaos_result, smoke_slo):
    again = run_scenario("chaos_smoke", seed=7)
    assert json.dumps(
        judge_health(again, smoke_slo), sort_keys=True
    ) == json.dumps(judge_health(chaos_result, smoke_slo), sort_keys=True)


def test_unmonitored_run_has_no_health():
    # Runs are judged only after they finish: nothing health-related is
    # attached to the result or recorded in its telemetry.
    result = run_scenario("wired_corrected", seed=1)
    assert not hasattr(result, "health")
    assert not any(
        name.startswith("health") for name in
        [r.component for r in result.telemetry["records"]]
        + snapshot_span_kinds(result.telemetry)
    )
