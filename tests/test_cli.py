"""CLI subcommands."""

import json
import math

import pytest

from repro.cli import main


def test_scenarios_listing(capsys):
    assert main(["scenarios"]) == 0
    out = capsys.readouterr().out
    assert "mntp_wireless_corrected" in out
    assert "wired_uncorrected" in out


def test_run_sntp_only_scenario(capsys):
    assert main(["--seed", "1", "run", "wired_corrected"]) == 0
    out = capsys.readouterr().out
    assert "SNTP" in out
    assert "MNTP" not in out


def test_run_mntp_scenario(capsys):
    assert main(["--seed", "1", "run", "mntp_wireless_corrected"]) == 0
    out = capsys.readouterr().out
    assert "MNTP" in out
    assert "improvement" in out


def test_run_unknown_scenario_rejected():
    with pytest.raises(SystemExit):
        main(["run", "nonsense"])


def test_pcap_unknown_server(tmp_path, capsys):
    assert main(["pcap", str(tmp_path / "out"), "--servers", "NOPE"]) == 2
    err = capsys.readouterr().err
    assert "unknown server" in err
    assert not (tmp_path / "out").exists()


def test_log_trace(tmp_path, capsys):
    path = tmp_path / "trace.jsonl"
    assert main(["--seed", "2", "log-trace", str(path), "--hours", "0.5"]) == 0
    out = capsys.readouterr().out
    assert f"trace saved to {path}" in out
    from repro.tuner.traces import OffsetTrace

    with open(path) as f:
        trace = OffsetTrace.load(f)
    assert len(trace) > 300


def test_autotune(capsys):
    assert main(["--seed", "2", "autotune", "--hours", "0.5",
                 "--target-ms", "50"]) == 0
    out = capsys.readouterr().out
    assert "recommended" in out
    assert "pareto" in out.lower()


def test_autotune_infeasible(capsys):
    assert main(["--seed", "2", "autotune", "--hours", "0.5",
                 "--budget-per-hour", "0.0001"]) == 1
    assert "no viable" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["log-trace", "t.jsonl", "--hours", "nan"],
    ["log-trace", "t.jsonl", "--hours", "-1"],
    ["log-trace", "t.jsonl", "--hours", "0"],
    ["log-trace", "t.jsonl", "--hours", "four"],
    ["autotune", "--hours", "inf"],
    ["autotune", "--hours", "-1"],
    ["autotune", "--target-ms", "0"],
    ["autotune", "--target-ms", "nan"],
    ["autotune", "--budget-per-hour", "-5"],
    ["autotune", "--budget-per-hour", "inf"],
])
def test_tuner_commands_reject_non_positive_or_non_finite(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err
    assert argv[-2] in err


@pytest.mark.parametrize("argv", [
    ["profile", "--smoke"],
    ["lint", "src", "--profile", "x"],
    ["metrics", "run.json"],
])
def test_removed_perf_commands_are_usage_errors(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["run", "wired_corrected", "--sample-rate", "2"],
    ["run", "wired_corrected", "--ring-capacity", "8"],
    ["trace", "x", "--sample-rate", "2"],
    ["run", "wired_corrected", "--telemetry", "out.jsonl"],
    ["run", "wired_corrected", "--json"],
    ["run", "wired_corrected", "--watch"],
    ["run", "wired_corrected", "--slo", "spec.json"],
    ["autotune", "--telemetry", "tune.jsonl"],
    ["matrix", "scenarios", "--save", "report.json"],
])
def test_removed_telemetry_options_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["explain", "run.json", "--worst", "-1"],
    ["explain", "run.json", "--window", "inf"],
    ["explain", "run.json", "--window", "nan"],
    ["explain", "run.json", "--window", "0"],
    ["trace", "run.json", "--limit", "-1"],
    ["matrix", "scenarios", "--timeout-s", "nan"],
    ["matrix", "scenarios", "--timeout-s", "inf"],
])
def test_out_of_range_counts_and_durations_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err
    assert argv[-2] in err


def test_run_save_and_replay(tmp_path, capsys):
    path = tmp_path / "run.json"
    assert main(["--seed", "1", "run", "wired_uncorrected",
                 "--save", str(path)]) == 0
    out = capsys.readouterr().out
    assert "archived" in out
    assert path.exists()
    assert main(["replay", str(path)]) == 0
    out = capsys.readouterr().out
    assert "SNTP" in out


def test_replay_missing_file(capsys):
    assert main(["replay", "/nonexistent/run.json"]) == 2
    assert "cannot load" in capsys.readouterr().err


def test_pcap(tmp_path, capsys):
    assert main(["--seed", "3", "pcap", str(tmp_path), "--servers", "JW1",
                 "--scale", "1e-4"]) == 0
    pcap_path = tmp_path / "JW1.pcap"
    assert f"wrote {pcap_path}" in capsys.readouterr().out
    # The written file is a genuine pcap that parses back to NTP traffic.
    from repro.logs.parser import parse_trace

    observations = parse_trace(pcap_path.read_bytes())
    assert observations


# -- telemetry surface ---------------------------------------------------


def _save_and_export(tmp_path, name):
    """``run --save`` then ``trace --jsonl``; the exported bytes."""
    archive = tmp_path / f"{name}.json"
    export = tmp_path / f"{name}.jsonl"
    assert main(["--seed", "1", "run", "mntp_wireless_corrected",
                 "--save", str(archive)]) == 0
    assert main(["trace", str(archive), "--jsonl", str(export)]) == 0
    return export


def test_run_telemetry_export_meets_acceptance(tmp_path, capsys):
    """A run's export (``trace A --jsonl``) carries the archive's records
    losslessly and >= 4 span kinds, and is byte-stable across
    save-and-export rounds."""
    from repro.obs.telemetry import TELEMETRY_FORMAT, snapshot_span_kinds
    from repro.testbed.persistence import load_result

    path = _save_and_export(tmp_path, "first")
    assert f"written to {path}" in capsys.readouterr().out
    with open(path) as f:
        meta, *lines = [json.loads(line) for line in f]
    with open(tmp_path / "first.json") as f:
        telemetry = load_result(f).telemetry
    records = telemetry["records"]
    # The meta line counts exactly the records the export carries.
    assert meta == {"format": TELEMETRY_FORMAT, "record_count": len(records),
                    "type": "meta"}
    assert lines == [{**r.to_dict(), "type": "record"} for r in records]
    assert len(snapshot_span_kinds(telemetry)) >= 4
    # Byte-identical on a second round with the same seed.
    assert _save_and_export(tmp_path, "second").read_bytes() == path.read_bytes()


def test_run_json_summary(tmp_path, capsys):
    """A run's JSON summary is ``replay A --json`` on its archive."""
    path = tmp_path / "run.json"
    assert main(["--seed", "1", "run", "wired_uncorrected",
                 "--save", str(path)]) == 0
    capsys.readouterr()
    assert main(["replay", str(path), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["sntp"]["count"] > 0
    assert set(data["telemetry"]) == {"record_count", "span_kinds"}


def test_trace_subcommand(tmp_path, capsys):
    run_path = tmp_path / "run.json"
    assert main(["--seed", "1", "run", "mntp_wireless_corrected",
                 "--save", str(run_path)]) == 0
    capsys.readouterr()

    chrome_path = tmp_path / "chrome.json"
    assert main(["trace", str(run_path), "--chrome", str(chrome_path),
                 "--kind", "deferred", "--limit", "2"]) == 0
    out = capsys.readouterr().out
    assert "sim.run" in out            # span summary table
    assert "mntp/deferred" in out      # filtered record listing
    document = json.loads(chrome_path.read_text())  # must be valid JSON
    assert document["traceEvents"]


def test_old_archive_with_metrics_and_explain_still_inspects(tmp_path, capsys):
    """An archive carrying ``telemetry.metrics`` and ``explain``, as older
    archives do, reads exactly like one without them."""
    path = tmp_path / "run.json"
    assert main(["--seed", "1", "run", "wired_corrected",
                 "--save", str(path)]) == 0
    capsys.readouterr()
    archive = json.loads(path.read_text())
    archive["telemetry"]["metrics"] = [
        {"name": "sim_events_total", "type": "counter", "help": "", "value": 1.0},
    ]
    archive["explain"] = {"format": "mntp-explain-v1", "worst": []}
    old = tmp_path / "old.json"
    old.write_text(json.dumps(archive))
    for command in ("trace", "explain", "health"):
        assert main([command, str(path)]) == 0
        expected = capsys.readouterr().out
        assert main([command, str(old)]) == 0
        assert capsys.readouterr().out == expected


_ARCHIVE = {
    "format": "mntp-experiment-v1", "duration": 1.0,
    "sntp": [], "true_offsets": [], "mntp_reports": [],
}


@pytest.mark.parametrize("command", ["trace", "explain", "replay", "health"])
@pytest.mark.parametrize("archive,key", [
    ({k: v for k, v in _ARCHIVE.items() if k != "duration"}, "duration"),
    ({**_ARCHIVE, "telemetry": {"records": [
        {"t": 0.0, "component": "mntp", "data": {}},
    ]}}, "kind"),
])
def test_malformed_archive_is_a_load_error(tmp_path, capsys, command,
                                           archive, key):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(archive))
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert "cannot load" in err
    assert repr(key) in err


@pytest.mark.parametrize("command", ["trace", "explain", "replay", "health"])
@pytest.mark.parametrize("archive,message", [
    ({**_ARCHIVE, "duration": None}, "duration must be a finite number, got None"),
    ({**_ARCHIVE, "sntp": [5]}, "sntp[0]: must be a JSON object, got int"),
    ({**_ARCHIVE, "telemetry": {"records": [
        {"t": 0.0, "component": "mntp", "kind": "k", "data": [1]},
    ]}}, "telemetry.records[0].data: must be a JSON object, got list"),
], ids=["null_duration", "non_object_point", "non_object_record_data"])
def test_mistyped_archive_field_is_a_load_error(tmp_path, capsys, command,
                                                archive, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(archive))
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert "cannot load" in err
    assert message in err


def test_trace_without_telemetry_payload(tmp_path, capsys):
    import json

    path = tmp_path / "old.json"
    path.write_text(json.dumps({
        "format": "mntp-experiment-v1", "duration": 1.0,
        "sntp": [], "true_offsets": [], "mntp_reports": [],
    }))
    assert main(["trace", str(path)]) == 2
    assert "no telemetry payload" in capsys.readouterr().err


def test_explain_subcommand(tmp_path, capsys):
    import json

    run_path = tmp_path / "run.json"
    assert main(["--seed", "3", "run", "mntp_wireless_corrected",
                 "--save", str(run_path)]) == 0
    capsys.readouterr()

    assert main(["explain", str(run_path)]) == 0
    out = capsys.readouterr().out
    assert "complete causal trees" in out
    assert "cause=" in out

    assert main(["explain", str(run_path), "--worst", "3", "--json"]) == 0
    out = capsys.readouterr().out
    report = json.loads(out)
    assert report["format"] == "mntp-explain-v1"
    assert report["coverage"] >= 0.95            # acceptance bar
    assert len(report["worst"]) == 3
    assert all(w["dominant_cause"] for w in report["worst"])

    trace_id = report["worst"][0]["trace_id"]
    assert main(["explain", str(run_path), "--trace-id", trace_id]) == 0
    out = capsys.readouterr().out
    assert f"sntp.exchange {trace_id}" in out
    assert "link.transit request" in out
    assert "server.turnaround" in out


def test_explain_unknown_trace_id(tmp_path, capsys):
    run_path = tmp_path / "run.json"
    assert main(["--seed", "1", "run", "wired_corrected",
                 "--save", str(run_path)]) == 0
    capsys.readouterr()
    assert main(["explain", str(run_path), "--trace-id", "nope/99"]) == 1
    assert "no exchange with trace id" in capsys.readouterr().err


def test_explain_without_telemetry_payload(tmp_path, capsys):
    import json

    path = tmp_path / "old.json"
    path.write_text(json.dumps({
        "format": "mntp-experiment-v1", "duration": 1.0,
        "sntp": [], "true_offsets": [], "mntp_reports": [],
    }))
    assert main(["explain", str(path)]) == 2
    assert "no telemetry payload" in capsys.readouterr().err


def test_explain_missing_file(capsys):
    assert main(["explain", "does-not-exist.json"]) == 2
    assert "cannot load" in capsys.readouterr().err


def test_health_archived_run_and_slo_spec(tmp_path, capsys):
    from repro.obs.health import SloSpec

    path = tmp_path / "run.json"
    assert main(["--seed", "4", "run", "wired_corrected",
                 "--save", str(path)]) == 0
    capsys.readouterr()
    assert main(["health", str(path)]) == 0
    assert "verdict:" in capsys.readouterr().out
    # An impossible spec makes the same archive fail the gate.
    strict = tmp_path / "strict.json"
    strict.write_text(SloSpec(
        p99_abs_error_warn_ms=0.0001, p99_abs_error_violate_ms=0.0002,
        min_samples=1,
    ).to_json())
    assert main(["health", str(path), "--slo", str(strict), "--json"]) == 1
    import json

    report = json.loads(capsys.readouterr().out)
    assert report["format"] == "mntp-health-report-v1"
    assert report["verdict"] == "violated"


def test_health_archive_without_failure_times_exits_2(tmp_path, capsys):
    # An archive written before SNTP failure times and fault windows
    # were recorded cannot be judged: its drop rate would read 0.
    path = tmp_path / "old.json"
    assert main(["--seed", "4", "run", "wired_corrected",
                 "--save", str(path)]) == 0
    archive = json.loads(path.read_text())
    del archive["sntp_failure_times"], archive["fault_windows"]
    path.write_text(json.dumps(archive))
    capsys.readouterr()
    assert main(["health", str(path)]) == 2
    err = capsys.readouterr().err
    assert "cannot judge" in err
    assert "no SNTP failure times" in err


@pytest.mark.parametrize("field,value", [
    ("p99_abs_error_violate_ms", math.nan),
    ("window_s", math.inf),
    ("min_samples", 2.5),
])
def test_health_rejects_slo_files_that_gate_nothing(
    tmp_path, capsys, field, value
):
    slo = _slo_file(tmp_path, "typo.json", **{field: value})
    assert main(["health", str(tmp_path / "run.json"), "--slo", slo]) == 2
    assert field in capsys.readouterr().err


def test_health_judges_an_archive_against_its_scenario_guarantees(
    tmp_path, capsys
):
    # chaos_smoke at seed 1 passes its own guarantees (as the smoke
    # matrix judges it) but violates the default SloSpec().
    path = tmp_path / "run.json"
    assert main(["--seed", "1", "run", "chaos_smoke",
                 "--save", str(path)]) == 0
    capsys.readouterr()
    assert main(["health", str(path)]) == 0
    assert "verdict: pass" in capsys.readouterr().out
    # An archive without the key is judged against the defaults.
    archive = json.loads(path.read_text())
    del archive["guarantees"]
    path.write_text(json.dumps(archive))
    assert main(["health", str(path)]) == 1
    assert "verdict: violated" in capsys.readouterr().out
    archive["guarantees"] = [1]
    path.write_text(json.dumps(archive))
    assert main(["health", str(path)]) == 2
    assert "cannot load" in capsys.readouterr().err


def test_health_argument_validation(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["health"])
    assert exc.value.code == 2
    assert "the following arguments are required: path" in capsys.readouterr().err
    assert main(["health", str(tmp_path / "missing.json")]) == 2
    assert "cannot load" in capsys.readouterr().err
    bad_spec = tmp_path / "spec.json"
    bad_spec.write_text('{"p99_err_ms": 1}')
    assert main(["health", str(tmp_path / "missing.json"),
                 "--slo", str(bad_spec)]) == 2
    assert "slo: unknown keys ['p99_err_ms']" in capsys.readouterr().err


def test_health_slo_with_unreadable_spec_fails(capsys):
    assert main(["health", "run.json", "--slo", "missing-spec.json"]) == 2
    assert "cannot load missing-spec.json" in capsys.readouterr().err


def _slo_file(tmp_path, name, **overrides):
    from repro.obs.health import SloSpec

    data = SloSpec().to_dict()
    data.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture(scope="module")
def wired_corrected_archive(tmp_path_factory):
    """``run wired_corrected --save`` at seed 2, shared by the SLO cases."""
    path = tmp_path_factory.mktemp("archive") / "run.json"
    assert main(["--seed", "2", "run", "wired_corrected",
                 "--save", str(path)]) == 0
    return str(path)


def test_health_lax_slo_reports_a_passing_verdict(
    tmp_path, capsys, wired_corrected_archive
):
    lax = _slo_file(tmp_path, "lax.json",
                    p99_abs_error_warn_ms=5000.0,
                    p99_abs_error_violate_ms=10000.0)
    capsys.readouterr()
    assert main(["health", wired_corrected_archive, "--slo", lax,
                 "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["format"] == "mntp-health-report-v1"
    assert report["verdict"] != "violated"


def test_run_violated_verdict_exits_nonzero(
    tmp_path, capsys, wired_corrected_archive
):
    """A run judged violated (``health A --slo S`` on its archive) exits 1."""
    strict = _slo_file(tmp_path, "strict.json",
                       p99_abs_error_warn_ms=0.0005,
                       p99_abs_error_violate_ms=0.001)
    capsys.readouterr()
    assert main(["health", wired_corrected_archive, "--slo", strict,
                 "--json"]) == 1
    assert json.loads(capsys.readouterr().out)["verdict"] == "violated"
    # Same verdict, text mode: the verdict line prints and rc stays 1.
    assert main(["health", wired_corrected_archive, "--slo", strict]) == 1
    assert "verdict: violated" in capsys.readouterr().out


# -- matrix ----------------------------------------------------------------


def _matrix_spec_file(tmp_path, name, tags=(), strict=False):
    from repro.obs.health import SloSpec
    from repro.testbed.specs import ScenarioSpec, TopologySpec, save_spec

    bars = (
        {"p99_abs_error_warn_ms": 0.0005, "p99_abs_error_violate_ms": 0.001}
        if strict else
        {"p99_abs_error_warn_ms": 5000.0, "p99_abs_error_violate_ms": 10000.0}
    )
    spec = ScenarioSpec(
        name=name,
        description="cli matrix fixture",
        duration_s=300.0,
        topology=TopologySpec(wireless=False, monitor_active=False),
        guarantees=SloSpec.from_dict({**SloSpec().to_dict(), **bars}),
        tags=tuple(tags),
    )
    save_spec(spec, str(tmp_path / f"{name}.json"))
    return spec


def test_matrix_cli_json(tmp_path, capsys):
    _matrix_spec_file(tmp_path, "tiny", tags=("smoke",))
    assert main(["--seed", "3", "matrix", str(tmp_path), "--jobs", "1",
                 "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["format"] == "mntp-matrix-report-v1"
    assert report["specs"][0]["name"] == "tiny"
    assert report["specs"][0]["status"] == "success"


def test_matrix_cli_hard_fail_exits_nonzero(tmp_path, capsys):
    _matrix_spec_file(tmp_path, "doomed", strict=True)
    assert main(["--seed", "3", "matrix", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "HARD FAIL" in out
    assert "doomed" in out


def test_matrix_cli_smoke_filters_tags(tmp_path, capsys):
    _matrix_spec_file(tmp_path, "gated", tags=("smoke",))
    # Strict spec would fail, but it is untagged so --smoke skips it.
    _matrix_spec_file(tmp_path, "skipped", strict=True)
    assert main(["--seed", "3", "matrix", str(tmp_path), "--smoke",
                 "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [entry["name"] for entry in report["specs"]] == ["gated"]


def test_matrix_cli_argument_validation(tmp_path, capsys):
    assert main(["matrix", str(tmp_path / "missing")]) == 2
    assert "not a directory" in capsys.readouterr().err
    assert main(["matrix", str(tmp_path), "--jobs", "0"]) == 2
    assert "jobs" in capsys.readouterr().err
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["matrix", str(empty)]) == 2
    assert "no scenario specs" in capsys.readouterr().err


def test_matrix_cli_serial_mode(tmp_path, capsys):
    # There is no in-process mode: every spec runs in a worker process.
    _matrix_spec_file(tmp_path, "tiny")
    with pytest.raises(SystemExit) as exc:
        main(["--seed", "3", "matrix", str(tmp_path), "--serial"])
    assert exc.value.code == 2
    assert "--serial" in capsys.readouterr().err


def test_matrix_cli_retries_is_a_usage_error(tmp_path, capsys):
    # A spec is deterministic for its seed, so nothing is retried.
    _matrix_spec_file(tmp_path, "tiny")
    with pytest.raises(SystemExit) as exc:
        main(["--seed", "3", "matrix", str(tmp_path), "--retries", "1"])
    assert exc.value.code == 2
    assert "--retries" in capsys.readouterr().err


def test_diff_subcommand_is_a_usage_error(capsys):
    # The telemetry diff engine is gone; explain answers "why".
    with pytest.raises(SystemExit) as exc:
        main(["diff", "a.json", "b.json"])
    assert exc.value.code == 2
    assert "invalid choice: 'diff'" in capsys.readouterr().err
