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
    from repro.obs.telemetry import snapshot_span_kinds

    assert result.telemetry is not None
    buf = io.StringIO()
    save_result(result, buf)
    buf.seek(0)
    loaded = load_result(buf)
    assert loaded.telemetry is not None
    assert loaded.telemetry["format"] == result.telemetry["format"]
    assert len(loaded.telemetry["records"]) == len(result.telemetry["records"])
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


@pytest.mark.parametrize("overrides,message", [
    ({"duration": None}, "duration must be a finite number, got None"),
    ({"sntp_failures": 1.5}, "sntp_failures must be an integer, got 1.5"),
    ({"sntp_failure_times": "0"}, "sntp_failure_times: must be a list, got str"),
    ({"fault_windows": [[0.0, 1.0, 2.0]]},
     "fault_windows[0]: must have 2 items, got 3"),
    ({"sntp": [5]}, "sntp[0]: must be a JSON object, got int"),
    ({"true_offsets": [{"t": 1.0, "o": "0"}]},
     "true_offsets[0].o must be a finite number, got '0'"),
    ({"telemetry": [1]}, "telemetry: must be a JSON object, got list"),
    ({"telemetry": {"records": [7]}},
     "telemetry.records[0]: must be a JSON object, got int"),
], ids=["null_duration", "float_failures", "string_times", "long_window",
        "non_object_point", "string_offset", "list_telemetry", "int_record"])
def test_mistyped_archive_field_names_its_path(overrides, message):
    data = _archive_with_report()
    data.update(overrides)
    with pytest.raises(ValueError, match=re.escape(message)):
        result_from_dict(data)


def test_inverted_fault_window_is_rejected_by_its_index():
    data = _archive_with_report()
    data["fault_windows"] = [[0.0, 1.0], [5.0, 4.0]]
    with pytest.raises(ValueError, match=re.escape(
            "fault_windows[1] ends before it starts (5.0 > 4.0)")):
        result_from_dict(data)
    data["fault_windows"] = [[0.0, 1.0], [5.0, 5.0]]
    assert result_from_dict(data).fault_windows == [(0.0, 1.0), (5.0, 5.0)]


def _guarantees_loaded(guarantees):
    data = _archive_with_report()
    data["guarantees"] = guarantees
    return load_archive(io.StringIO(json.dumps(data)))[1]


def test_legacy_guarantees_with_the_rate_signal_off_load():
    from repro.obs.health import SloSpec

    legacy = {**SloSpec(window_s=120.0).to_dict(),
              "exchange_rate_warn_per_s": 0.0,
              "exchange_rate_violate_per_s": 0.0}
    assert _guarantees_loaded(legacy) == SloSpec(window_s=120.0)


@pytest.mark.parametrize("key", [
    "exchange_rate_warn_per_s", "exchange_rate_violate_per_s",
])
def test_legacy_guarantees_with_the_rate_signal_on_are_rejected(key):
    legacy = {"exchange_rate_warn_per_s": 0.0,
              "exchange_rate_violate_per_s": 0.0, key: 0.5}
    with pytest.raises(ValueError, match=re.escape(f"guarantees.{key}")):
        _guarantees_loaded(legacy)


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
    loaded = result_from_dict(data)
    assert loaded.telemetry is None


def test_old_archive_with_metrics_and_explain_loads(result):
    """Older archives carry a metric list and an embedded explain report.

    Both load and are ignored: ``explain`` recomputes from the records,
    and every count lives in a record, span or result field.
    """
    from repro.obs.explain import explain_run

    data = json.loads(json.dumps(result_to_dict(result)))
    assert set(data) >= {"telemetry", "mntp_reports"}
    assert "explain" not in data
    assert set(data["telemetry"]) == {"format", "records"}
    old = {
        **data,
        "telemetry": {
            **data["telemetry"],
            "metrics": [{"name": "sim_events_total", "type": "counter",
                         "help": "events executed", "value": 1.0}],
        },
        "explain": {"format": "mntp-explain-v1", "worst": []},
    }
    loaded = result_from_dict(old)
    assert loaded.telemetry == result_from_dict(data).telemetry
    assert set(loaded.telemetry) == {"format", "records"}
    assert not hasattr(loaded, "explain")
    assert result_to_dict(loaded) == data
    report = explain_run(loaded.telemetry, samples=loaded.offset_samples())
    assert report.to_dict() == explain_run(
        result.telemetry, samples=result.offset_samples()
    ).to_dict()


def test_roundtrip_preserves_health_report():
    import json

    from repro.obs.health import judge_health
    from repro.testbed.specs import load_scenario, run_scenario

    run = run_scenario("chaos_smoke", seed=2)
    assert run.sntp_failure_times and run.fault_windows
    archived = result_to_dict(run)
    loaded = result_from_dict(json.loads(json.dumps(archived)))
    assert loaded.sntp_failure_times == run.sntp_failure_times
    assert loaded.fault_windows == run.fault_windows
    guarantees = load_scenario("chaos_smoke").guarantees
    assert judge_health(loaded, guarantees) == judge_health(run, guarantees)
    # An archive written before failure times and fault windows were
    # recorded loads them as None (and keeps its failure count).
    del archived["sntp_failure_times"], archived["fault_windows"]
    legacy = result_from_dict(archived)
    assert legacy.sntp_failure_times is None
    assert legacy.fault_windows is None
    assert legacy.sntp_failures == run.sntp_failures
