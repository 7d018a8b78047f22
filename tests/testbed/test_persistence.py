"""Experiment result JSON persistence."""

import io
import json
import math
import re

import pytest

from repro.core.config import MntpConfig
from repro.testbed.experiment import ExperimentRunner, OffsetPoint
from repro.testbed.nodes import TestbedOptions
from repro.testbed.persistence import (
    load_archive,
    load_result,
    result_from_dict,
    result_to_dict,
    save_result,
)


@pytest.fixture(scope="module")
def result():
    return ExperimentRunner(
        seed=1,
        options=TestbedOptions(wireless=True, ntp_correction=False),
        duration=300.0,
        mntp_config=MntpConfig.baseline_headtohead(),
    ).run()


def test_roundtrip_preserves_series(result):
    buf = io.StringIO()
    save_result(result, buf)
    buf.seek(0)
    loaded = load_result(buf)
    assert loaded.duration == result.duration
    assert loaded.sntp_failures == result.sntp_failures
    assert [p.offset for p in loaded.sntp] == [p.offset for p in result.sntp]
    assert [p.truth for p in loaded.sntp] == [p.truth for p in result.sntp]
    assert len(loaded.mntp_reports) == len(result.mntp_reports)
    for a, b in zip(loaded.mntp_reports, result.mntp_reports):
        assert a.offset == b.offset
        assert a.accepted == b.accepted
        assert a.phase == b.phase
        assert a.residual == b.residual


def test_roundtrip_preserves_statistics(result):
    buf = io.StringIO()
    save_result(result, buf)
    buf.seek(0)
    loaded = load_result(buf)
    assert loaded.sntp_stats().mean_abs == result.sntp_stats().mean_abs
    assert loaded.mntp_error_stats().mean_abs == result.mntp_error_stats().mean_abs
    assert loaded.improvement_factor() == result.improvement_factor()


def test_missing_truth_roundtrips_as_nan():
    from repro.testbed.experiment import ExperimentResult

    r = ExperimentResult(duration=1.0)
    r.sntp = [OffsetPoint(0.0, 0.5)]  # no truth
    loaded = result_from_dict(result_to_dict(r))
    assert math.isnan(loaded.sntp[0].truth)


def test_wrong_format_rejected():
    with pytest.raises(ValueError):
        result_from_dict({"format": "something-else"})


def test_roundtrip_preserves_telemetry_payload(result):
    from repro.obs.telemetry import snapshot_metric_names, snapshot_span_kinds

    assert result.telemetry is not None
    buf = io.StringIO()
    save_result(result, buf)
    buf.seek(0)
    loaded = load_result(buf)
    assert loaded.telemetry is not None
    assert loaded.telemetry["format"] == result.telemetry["format"]
    assert len(loaded.telemetry["records"]) == len(result.telemetry["records"])
    assert snapshot_metric_names(loaded.telemetry) == snapshot_metric_names(
        result.telemetry
    )
    assert snapshot_span_kinds(loaded.telemetry) == snapshot_span_kinds(
        result.telemetry
    )
    # Stats survive alongside the payload.
    assert loaded.sntp_stats().rmse == result.sntp_stats().rmse


def test_loaded_telemetry_records_are_trace_records(result):
    from repro.simcore.trace import TraceRecord

    loaded = result_from_dict(json.loads(json.dumps(result_to_dict(result))))
    records = loaded.telemetry["records"]
    assert records
    assert all(isinstance(r, TraceRecord) for r in records)
    assert records == result.telemetry["records"]


def test_loaded_archive_saves_to_the_same_bytes(result):
    first = io.StringIO()
    save_result(result, first)
    second = io.StringIO()
    save_result(load_result(io.StringIO(first.getvalue())), second)
    assert second.getvalue() == first.getvalue()


def _archive_with_report(**overrides):
    from repro.testbed.experiment import ExperimentResult

    data = result_to_dict(ExperimentResult(duration=1.0))
    report = {"t": 5.0, "o": 0.01, "accepted": True, "phase": "warmup",
              "corrected": False, "residual": None, "truth": None}
    report.update(overrides)
    data["mntp_reports"] = [report]
    return data


def test_archived_report_round_trips():
    loaded = result_from_dict(_archive_with_report(residual=0.002))
    (report,) = loaded.mntp_reports
    assert (report.time, report.offset, report.residual) == (5.0, 0.01, 0.002)
    assert report.accepted is True


@pytest.mark.parametrize("overrides,message", [
    ({"accepted": "false"},
     "mntp_reports[0].accepted must be a boolean, got 'false'"),
    ({"residual": "big"},
     "mntp_reports[0].residual must be a finite number, got 'big'"),
    ({"phase": "idle"}, "mntp_reports[0].phase must be one of"),
    ({"rssi": -50.0}, "mntp_reports[0]: unknown keys ['rssi']"),
], ids=["accepted", "residual", "phase", "unknown_key"])
def test_malformed_archived_report_names_its_path(overrides, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        result_from_dict(_archive_with_report(**overrides))


def test_non_object_archived_report_names_its_path():
    data = _archive_with_report()
    data["mntp_reports"] = [5]
    with pytest.raises(ValueError, match=re.escape(
            "mntp_reports[0]: must be a JSON object, got int")):
        result_from_dict(data)


@pytest.mark.parametrize("guarantees,message", [
    ([1], "guarantees: must be a JSON object, got list"),
    ({"window_s": "300"}, "guarantees.window_s must be a finite number"),
], ids=["non_object", "string_window"])
def test_malformed_archived_guarantees_name_their_path(guarantees, message):
    data = _archive_with_report()
    data["guarantees"] = guarantees
    with pytest.raises(ValueError, match=re.escape(message)):
        load_archive(io.StringIO(json.dumps(data)))


def test_result_without_telemetry_loads_as_none():
    from repro.testbed.experiment import ExperimentResult

    r = ExperimentResult(duration=1.0)
    data = result_to_dict(r)
    assert "telemetry" not in data
    assert "explain" not in data
    loaded = result_from_dict(data)
    assert loaded.telemetry is None
    assert loaded.explain is None


def test_save_embeds_explain_report(result):
    data = result_to_dict(result)
    explain = data["explain"]
    assert explain["format"] == "mntp-explain-v1"
    assert explain["coverage"] >= 0.95
    assert explain["exchanges_total"] > 0
    assert explain["worst"] and explain["worst"][0]["dominant_cause"]
    # Round-trips verbatim.
    loaded = result_from_dict(data)
    assert loaded.explain == explain
    # And matches a fresh computation from the archived telemetry.
    from repro.obs.explain import explain_run

    fresh = explain_run(
        loaded.telemetry, samples=loaded.offset_samples()
    ).to_dict(worst_n=5)
    assert fresh == explain


def test_roundtrip_preserves_health_report():
    import json

    from repro.obs.health import judge_health, smoke_spec
    from repro.testbed.specs import run_scenario

    run = run_scenario("chaos_smoke", seed=2)
    assert run.sntp_failure_times and run.fault_windows
    archived = result_to_dict(run)
    loaded = result_from_dict(json.loads(json.dumps(archived)))
    assert loaded.sntp_failure_times == run.sntp_failure_times
    assert loaded.fault_windows == run.fault_windows
    assert judge_health(loaded, smoke_spec()) == judge_health(
        run, smoke_spec()
    )
    # An archive written before failure times and fault windows were
    # recorded loads them as None (and keeps its failure count).
    del archived["sntp_failure_times"], archived["fault_windows"]
    legacy = result_from_dict(archived)
    assert legacy.sntp_failure_times is None
    assert legacy.fault_windows is None
    assert legacy.sntp_failures == run.sntp_failures
