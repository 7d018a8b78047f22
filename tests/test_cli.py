"""CLI subcommands."""

import json

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


def test_logstudy(capsys):
    assert main(["--seed", "3", "logstudy", "--servers", "JW1",
                 "--scale", "1e-4"]) == 0
    out = capsys.readouterr().out
    assert "JW1" in out
    assert "category medians" in out


def test_logstudy_unknown_server(capsys):
    assert main(["logstudy", "--servers", "NOPE"]) == 2
    err = capsys.readouterr().err
    assert "unknown server" in err


def test_cellular(capsys):
    assert main(["--seed", "1", "cellular"]) == 0
    out = capsys.readouterr().out
    assert "promotions=" in out
    assert "offset CDF" in out


def test_tune_and_save(tmp_path, capsys):
    path = tmp_path / "trace.jsonl"
    assert main(["--seed", "2", "tune", "--hours", "0.5",
                 "--save", str(path)]) == 0
    out = capsys.readouterr().out
    assert "RMSE (ms)" in out
    assert path.exists()
    from repro.tuner import OffsetTrace

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
    ["tune", "--hours", "nan"],
    ["tune", "--hours", "-1"],
    ["tune", "--hours", "0"],
    ["tune", "--hours", "four"],
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
    assert argv[1] in err


@pytest.mark.parametrize("argv", [
    ["profile", "--smoke"],
    ["lint", "src", "--profile", "x"],
])
def test_removed_perf_commands_are_usage_errors(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


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


def test_logstudy_save_pcap(tmp_path, capsys):
    assert main(["--seed", "3", "logstudy", "--servers", "JW1",
                 "--scale", "1e-4", "--save-pcap-dir", str(tmp_path)]) == 0
    pcap_path = tmp_path / "JW1.pcap"
    assert pcap_path.exists()
    # The written file is a genuine pcap that parses back to NTP traffic.
    from repro.logs.parser import parse_trace

    observations = parse_trace(pcap_path.read_bytes())
    assert observations


def test_calibrate(capsys):
    code = main(["--seed", "1", "calibrate"])
    out = capsys.readouterr().out
    assert "verdict" in out
    assert code == 0
    assert "calibration OK" in out


# -- telemetry surface ---------------------------------------------------


def test_run_telemetry_export_meets_acceptance(tmp_path, capsys):
    """The ISSUE acceptance bar: >=5 metric names, >=4 span kinds."""
    from repro.obs import load_jsonl, snapshot_metric_names, snapshot_span_kinds

    path = tmp_path / "out.jsonl"
    assert main(["--seed", "1", "run", "mntp_wireless_corrected",
                 "--telemetry", str(path)]) == 0
    assert "telemetry" in capsys.readouterr().out
    with open(path) as f:
        snap = load_jsonl(f)
    assert len(snapshot_metric_names(snap)) >= 5
    assert len(snapshot_span_kinds(snap)) >= 4
    # Byte-identical on re-run with the same seed.
    first = path.read_bytes()
    assert main(["--seed", "1", "run", "mntp_wireless_corrected",
                 "--telemetry", str(path)]) == 0
    capsys.readouterr()
    assert path.read_bytes() == first


def test_run_json_summary(capsys):
    import json

    assert main(["--seed", "1", "run", "wired_uncorrected", "--json"]) == 0
    out = capsys.readouterr().out
    data = json.loads(out)
    assert data["sntp"]["count"] > 0
    assert "metric_names" in data["telemetry"]


def test_trace_and_metrics_subcommands(tmp_path, capsys):
    import json

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
    with open(chrome_path) as f:
        document = json.load(f)        # must be valid JSON
    assert document["traceEvents"]

    assert main(["metrics", str(run_path)]) == 0
    out = capsys.readouterr().out
    assert "# TYPE sim_events_total counter" in out
    assert "mntp_abs_residual_ms_bucket" in out


def test_trace_without_telemetry_payload(tmp_path, capsys):
    import json

    path = tmp_path / "old.json"
    path.write_text(json.dumps({
        "format": "mntp-experiment-v1", "duration": 1.0,
        "sntp": [], "true_offsets": [], "mntp_reports": [],
    }))
    assert main(["trace", str(path)]) == 2
    assert "no telemetry payload" in capsys.readouterr().err


def test_cellular_json_and_telemetry(tmp_path, capsys):
    import json

    path = tmp_path / "cell.jsonl"
    assert main(["--seed", "1", "cellular", "--json",
                 "--telemetry", str(path)]) == 0
    out = capsys.readouterr().out
    data = json.loads(out[out.index("{"):])
    assert data["offsets"]["count"] > 0
    assert path.exists()


def test_autotune_telemetry(tmp_path, capsys):
    from repro.obs import load_jsonl, snapshot_span_kinds

    path = tmp_path / "tune.jsonl"
    assert main(["--seed", "2", "autotune", "--hours", "0.5",
                 "--target-ms", "50", "--telemetry", str(path)]) == 0
    capsys.readouterr()
    with open(path) as f:
        snap = load_jsonl(f)
    kinds = snapshot_span_kinds(snap)
    assert "tuner.tune" in kinds and "tuner.eval" in kinds


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


# -- scale-out telemetry surface ------------------------------------------


def test_run_with_sampling_and_ring_flags(tmp_path, capsys):
    from repro.obs import load_jsonl

    full = tmp_path / "full.jsonl"
    sampled = tmp_path / "sampled.jsonl"
    assert main(["--seed", "1", "run", "wired_corrected",
                 "--telemetry", str(full)]) == 0
    assert main(["--seed", "1", "run", "wired_corrected",
                 "--sample-rate", "8", "--ring-capacity", "64",
                 "--telemetry", str(sampled)]) == 0
    capsys.readouterr()
    with open(full) as f:
        full_snap = load_jsonl(f)
    with open(sampled) as f:
        sampled_snap = load_jsonl(f)
    assert len(sampled_snap["records"]) < len(full_snap["records"])
    info = sampled_snap["sampling"]
    assert info["rate"] == 8
    # Cold-path records append directly (never offered to the sampler),
    # so the snapshot holds the kept ones plus those.
    assert info["kept"] <= len(sampled_snap["records"])
    assert info["dropped"] > 0
    # The sampled run self-meters its own telemetry cost.
    names = {m["name"] for m in sampled_snap["metrics"]}
    assert "obs_overhead_records_total" in names
    # Sampling changes what is recorded, not what is simulated.
    assert (
        [m for m in sampled_snap["metrics"]
         if m["name"] == "sntp_queries_total"]
        == [m for m in full_snap["metrics"]
            if m["name"] == "sntp_queries_total"]
    )


def test_run_rejects_bad_sample_rate(capsys):
    assert main(["run", "wired_corrected", "--sample-rate", "0"]) == 2
    assert "sample rate" in capsys.readouterr().err


def test_trace_sample_rate_downsamples_deterministically(tmp_path, capsys):
    run_path = tmp_path / "run.json"
    assert main(["--seed", "1", "run", "wired_corrected",
                 "--save", str(run_path)]) == 0
    capsys.readouterr()
    out_a = tmp_path / "a.jsonl"
    out_b = tmp_path / "b.jsonl"
    assert main(["trace", str(run_path), "--sample-rate", "4",
                 "--jsonl", str(out_a), "--limit", "1"]) == 0
    out = capsys.readouterr().out
    assert "sampled 1-in-4" in out
    assert main(["trace", str(run_path), "--sample-rate", "4",
                 "--jsonl", str(out_b), "--limit", "1"]) == 0
    capsys.readouterr()
    assert out_a.read_bytes() == out_b.read_bytes()
    full = tmp_path / "full.jsonl"
    assert main(["trace", str(run_path), "--jsonl", str(full),
                 "--limit", "1"]) == 0
    capsys.readouterr()
    assert len(out_a.read_text().splitlines()) < len(
        full.read_text().splitlines()
    )


def test_trace_rejects_bad_sample_rate(tmp_path, capsys):
    run_path = tmp_path / "run.json"
    assert main(["--seed", "1", "run", "wired_corrected",
                 "--save", str(run_path)]) == 0
    capsys.readouterr()
    assert main(["trace", str(run_path), "--sample-rate", "0"]) == 2
    assert "sample rate" in capsys.readouterr().err


def test_metrics_merge_is_order_independent(tmp_path, capsys):
    import json

    from repro.obs import Telemetry, make_shard

    def shard(seed, name):
        telemetry = Telemetry.standalone()
        telemetry.metrics.counter("q_total").inc(seed)
        telemetry.trace.emit(float(seed), "mntp", "tick", i=seed)
        path = tmp_path / name
        path.write_text(json.dumps(make_shard(telemetry.snapshot(), name)))
        return path

    a = shard(1, "a.json")
    b = shard(2, "b.json")
    out_ab = tmp_path / "ab.jsonl"
    out_ba = tmp_path / "ba.jsonl"
    assert main(["metrics", "--merge", str(a), str(b),
                 "--out", str(out_ab)]) == 0
    prom_ab = capsys.readouterr().out
    assert main(["metrics", "--merge", str(b), str(a),
                 "--out", str(out_ba)]) == 0
    prom_ba = capsys.readouterr().out
    assert out_ab.read_bytes() == out_ba.read_bytes()
    assert prom_ab == prom_ba
    assert "q_total 3" in prom_ab  # counters summed across shards


def test_metrics_merge_argument_validation(tmp_path, capsys):
    assert main(["metrics", "run.json", "--merge", "a.json"]) == 2
    assert "not both" in capsys.readouterr().err
    assert main(["metrics", "--out", "x.jsonl"]) == 2
    assert "--out only applies" in capsys.readouterr().err
    assert main(["metrics", "--merge", str(tmp_path / "missing.json")]) == 2
    assert "cannot load" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text('{"format": "other"}')
    assert main(["metrics", "--merge", str(bad)]) == 2
    assert "expected" in capsys.readouterr().err


def test_metrics_merge_single_shard_is_byte_identity(tmp_path, capsys):
    import io
    import json

    from repro.obs import Telemetry, make_shard, write_jsonl

    telemetry = Telemetry.standalone()
    telemetry.metrics.counter("q_total").inc(4)
    telemetry.trace.emit(1.0, "mntp", "tick", i=1)
    snapshot = telemetry.snapshot()
    # Unknown snapshot keys must survive the single-shard pass-through.
    snapshot["future_extension"] = {"x": 1}
    shard = tmp_path / "only.json"
    shard.write_text(json.dumps(make_shard(snapshot, "only")))
    out = tmp_path / "merged.jsonl"
    assert main(["metrics", "--merge", str(shard), "--out", str(out)]) == 0
    capsys.readouterr()
    direct = io.StringIO()
    write_jsonl(snapshot, direct)
    assert out.read_text() == direct.getvalue()


def test_health_archived_run_and_slo_spec(tmp_path, capsys):
    from repro.obs import SloSpec

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


def test_health_argument_validation(tmp_path, capsys):
    assert main(["health"]) == 2
    assert "archived run path" in capsys.readouterr().err
    assert main(["health", str(tmp_path / "missing.json")]) == 2
    assert "cannot load" in capsys.readouterr().err
    bad_spec = tmp_path / "spec.json"
    bad_spec.write_text('{"p99_err_ms": 1}')
    assert main(["health", str(tmp_path / "missing.json"),
                 "--slo", str(bad_spec)]) == 2
    assert "unknown SloSpec fields" in capsys.readouterr().err


def test_diff_same_seed_is_identical(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        assert main(["--seed", "9", "run", "wired_corrected",
                     "--save", str(path)]) == 0
    capsys.readouterr()
    assert main(["diff", str(a), str(b)]) == 0
    assert "snapshots are identical" in capsys.readouterr().out


def test_diff_reports_suspects_between_seeds(tmp_path, capsys):
    import json

    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["--seed", "9", "run", "wired_corrected", "--save", str(a)]) == 0
    assert main(["--seed", "10", "run", "wired_corrected", "--save", str(b)]) == 0
    capsys.readouterr()
    assert main(["diff", str(a), str(b), "--top", "3"]) == 1
    assert "suspects" in capsys.readouterr().out
    assert main(["diff", str(a), str(b), "--json"]) == 1
    document = json.loads(capsys.readouterr().out)
    assert document["format"] == "mntp-telemetry-diff-v1"
    assert document["identical"] is False


def test_diff_argument_validation(tmp_path, capsys):
    assert main(["diff", str(tmp_path / "nope.json"),
                 str(tmp_path / "nope2.json")]) == 2
    assert "cannot load" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text('{"format": "mystery-v9"}')
    ok = tmp_path / "ok.json"
    assert main(["--seed", "2", "run", "wired_corrected",
                 "--save", str(ok)]) == 0
    capsys.readouterr()
    assert main(["diff", str(bad), str(ok)]) == 2
    assert "mystery-v9" in capsys.readouterr().err


def test_run_watch_prints_health_lines(capsys):
    assert main(["--seed", "2", "run", "wired_corrected", "--watch"]) == 0
    out = capsys.readouterr().out
    assert "health t=" in out
    assert "p99|err|=" in out


def test_run_slo_with_unreadable_spec_fails(capsys):
    assert main(["run", "wired_corrected", "--slo", "missing-spec.json"]) == 2
    assert "cannot load" in capsys.readouterr().err


def _slo_file(tmp_path, name, **overrides):
    from repro.obs import SloSpec

    data = SloSpec().to_dict()
    data.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_run_slo_without_watch_monitors_and_reports(tmp_path, capsys):
    lax = _slo_file(tmp_path, "lax.json",
                    p99_abs_error_warn_ms=5000.0,
                    p99_abs_error_violate_ms=10000.0)
    assert main(["--seed", "2", "run", "wired_corrected",
                 "--slo", lax, "--json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["health"]["format"] == "mntp-health-report-v1"
    assert summary["health"]["verdict"] != "violated"


def test_run_violated_verdict_exits_nonzero(tmp_path, capsys):
    strict = _slo_file(tmp_path, "strict.json",
                       p99_abs_error_warn_ms=0.0005,
                       p99_abs_error_violate_ms=0.001)
    assert main(["--seed", "2", "run", "wired_corrected",
                 "--slo", strict, "--json"]) == 1
    summary = json.loads(capsys.readouterr().out)
    assert summary["health"]["verdict"] == "violated"
    # Same verdict, table mode: the verdict line prints and rc stays 1.
    assert main(["--seed", "2", "run", "wired_corrected",
                 "--slo", strict]) == 1
    assert "health verdict: violated" in capsys.readouterr().out


# -- matrix ----------------------------------------------------------------


def _matrix_spec_file(tmp_path, name, tags=(), strict=False):
    from repro.obs import SloSpec
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


def test_matrix_cli_json_and_save(tmp_path, capsys):
    _matrix_spec_file(tmp_path, "tiny", tags=("smoke",))
    out_path = tmp_path / "report.json"
    assert main(["--seed", "3", "matrix", str(tmp_path), "--jobs", "1",
                 "--json", "--save", str(out_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["format"] == "mntp-matrix-report-v1"
    assert report["specs"][0]["name"] == "tiny"
    assert report["specs"][0]["status"] == "success"
    assert json.loads(out_path.read_text()) == report


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
    _matrix_spec_file(tmp_path, "tiny")
    assert main(["--seed", "3", "matrix", str(tmp_path), "--serial",
                 "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["specs"][0]["status"] == "success"
