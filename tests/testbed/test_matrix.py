"""Matrix runner: crash and hang isolation, deterministic reports."""

import json
import math
import os
import threading

import pytest

from repro.obs.health import SloSpec
from repro.testbed.matrix import (
    MATRIX_FORMAT,
    MatrixOptions,
    discover_specs,
    render_matrix_text,
    report_to_json,
    run_matrix,
)
from repro.testbed.specs import ScenarioSpec, TopologySpec, save_spec

# The scripted worker reads its behaviour from the spec's description,
# so one worker function (picklable, module-level) drives every
# failure path.  "worst" values derive from duration_s so the
# worst-case tables are predictable per spec.


def _spec(name, behaviour, duration_s=300.0, tags=()):
    return ScenarioSpec(
        name=name,
        description=behaviour,
        duration_s=duration_s,
        topology=TopologySpec(wireless=False, monitor_active=False),
        tags=tuple(tags),
    )


def _fake_outcome(spec):
    return {
        "name": spec.name,
        "status": "success",
        "guarantees": {
            "verdict": "pass",
            "worst": {
                "p99_abs_error_ms": spec.duration_s / 10.0,
                "drop_rate_ratio": 0.0,
                "starvation_s": spec.duration_s / 5.0,
            },
        },
        "minimal_guarantees": None,
        "summary": {"duration_s": spec.duration_s},
    }


def scripted_worker(spec_json, seed):
    spec = ScenarioSpec.from_json(spec_json)
    behaviour = spec.description
    if behaviour == "crash":
        os._exit(3)
    if behaviour == "hang":
        threading.Event().wait(60.0)
    if behaviour == "raise":
        raise RuntimeError("boom")
    return _fake_outcome(spec)


def write_failure_dir(tmp_path):
    for spec in (
        _spec("crashy", "crash"),
        _spec("good_a", "ok", duration_s=400.0),
        _spec("good_b", "ok", duration_s=400.0),
        _spec("slow", "hang"),
    ):
        save_spec(spec, str(tmp_path / f"{spec.name}.json"))
    return str(tmp_path)


def failure_options(jobs):
    return MatrixOptions(seed=7, jobs=jobs, timeout_s=1.0)


def entry_by_name(report):
    return {entry["name"]: entry for entry in report["specs"]}


def test_crash_and_hang_paths_and_byte_identical_reports(tmp_path):
    directory = write_failure_dir(tmp_path)
    serial_report = run_matrix(directory, failure_options(jobs=1),
                               worker=scripted_worker)
    pooled_report = run_matrix(directory, failure_options(jobs=4),
                               worker=scripted_worker)

    # The aggregated report is byte-identical across worker counts.
    assert report_to_json(serial_report) == report_to_json(pooled_report)

    entries = entry_by_name(serial_report)
    # Worker crash: isolated, recorded once.
    assert entries["crashy"]["status"] == "crashed"
    assert "exit code 3" in entries["crashy"]["error"]
    # Hung worker: terminated at the deadline.
    assert entries["slow"]["status"] == "timeout"
    assert "within 1s" in entries["slow"]["error"]
    # The healthy specs never pay for their neighbours.
    assert entries["good_a"]["status"] == "success"
    assert entries["good_b"]["status"] == "success"

    assert serial_report["format"] == MATRIX_FORMAT
    assert serial_report["counts"] == {
        "crashed": 1, "success": 2, "timeout": 1,
    }
    assert serial_report["verdict"] == {
        "ok": False, "hard_failed": ["crashy", "slow"],
    }


def test_worst_tables_break_ties_toward_the_smaller_name(tmp_path):
    directory = write_failure_dir(tmp_path)
    report = run_matrix(directory, failure_options(jobs=2),
                        worker=scripted_worker)
    # good_a and good_b share the worst p99 (duration 400 -> 40.0);
    # the tie goes to the lexicographically smaller spec name.
    assert report["worst"]["p99_abs_error_ms"] == {
        "value": 40.0, "spec": "good_a",
    }
    assert report["worst"]["starvation_s"]["spec"] == "good_a"


def test_raising_worker_is_an_error_not_a_crash(tmp_path):
    save_spec(_spec("raiser", "raise"), str(tmp_path / "raiser.json"))
    report = run_matrix(
        str(tmp_path),
        MatrixOptions(seed=1, jobs=2, timeout_s=5.0),
        worker=scripted_worker,
    )
    entry = report["specs"][0]
    assert entry["status"] == "error"
    assert "RuntimeError: boom" in entry["error"]


def test_invalid_spec_file_costs_itself_not_the_matrix(tmp_path):
    (tmp_path / "broken.json").write_text("{not json")
    save_spec(_spec("good_a", "ok"), str(tmp_path / "good_a.json"))
    report = run_matrix(
        str(tmp_path), MatrixOptions(seed=1, timeout_s=5.0),
        worker=scripted_worker,
    )
    entries = entry_by_name(report)
    assert entries["broken"]["status"] == "invalid"
    assert "broken.json" in entries["broken"]["error"]
    assert entries["good_a"]["status"] == "success"
    assert report["verdict"]["hard_failed"] == ["broken"]


def test_mistyped_spec_values_cost_their_file_not_the_matrix(tmp_path):
    good = _spec("good_a", "ok")
    bad_temperature = good.to_dict()
    bad_temperature["name"] = "cold"
    bad_temperature["topology"]["temperature"] = {
        "profile": "diurnal", "mean_c": None,
    }
    (tmp_path / "cold.json").write_text(json.dumps(bad_temperature))
    bad_pools = good.to_dict()
    bad_pools["name"] = "pools"
    bad_pools["mntp"] = {"warmup_pools": 5}
    (tmp_path / "pools.json").write_text(json.dumps(bad_pools))
    # A string timeout used to pass discovery and crash mid-run, and a
    # string "false" used to run with failover on.
    bad_timeout = good.to_dict()
    bad_timeout["name"] = "timeout"
    bad_timeout["mntp"] = {"query_timeout": "2"}
    (tmp_path / "timeout.json").write_text(json.dumps(bad_timeout))
    bad_failover = good.to_dict()
    bad_failover["name"] = "failover"
    bad_failover["hardening"] = {"failover": "false"}
    (tmp_path / "failover.json").write_text(json.dumps(bad_failover))
    save_spec(good, str(tmp_path / "good_a.json"))
    report = run_matrix(
        str(tmp_path), MatrixOptions(seed=1, timeout_s=5.0),
        worker=scripted_worker,
    )
    entries = entry_by_name(report)
    assert entries["cold"]["status"] == "invalid"
    assert "spec.topology.temperature.mean_c" in entries["cold"]["error"]
    assert entries["pools"]["status"] == "invalid"
    assert "spec.mntp.warmup_pools" in entries["pools"]["error"]
    assert entries["timeout"]["status"] == "invalid"
    assert ("spec.mntp.query_timeout must be a finite number, got '2'"
            in entries["timeout"]["error"])
    assert entries["failover"]["status"] == "invalid"
    assert ("spec.hardening.failover must be a boolean, got 'false'"
            in entries["failover"]["error"])
    assert entries["good_a"]["status"] == "success"
    assert report["verdict"]["hard_failed"] == [
        "cold", "failover", "pools", "timeout",
    ]


def test_duplicate_spec_names_flag_the_second_file(tmp_path):
    save_spec(_spec("twin", "ok"), str(tmp_path / "a.json"))
    save_spec(_spec("twin", "ok"), str(tmp_path / "b.json"))
    specs, invalid = discover_specs(str(tmp_path))
    assert [s.name for s in specs] == ["twin"]
    assert len(invalid) == 1
    assert "duplicate spec name" in invalid[0]["error"]


def test_tag_filter_selects_smoke_specs(tmp_path):
    save_spec(_spec("tagged", "ok", tags=("smoke",)),
              str(tmp_path / "tagged.json"))
    save_spec(_spec("untagged", "ok"), str(tmp_path / "untagged.json"))
    specs, _ = discover_specs(str(tmp_path), tags=("smoke",))
    assert [s.name for s in specs] == ["tagged"]


def test_real_worker_end_to_end(tmp_path):
    lax = SloSpec.from_dict({
        **SloSpec().to_dict(),
        "p99_abs_error_warn_ms": 5000.0,
        "p99_abs_error_violate_ms": 10000.0,
    })
    spec = ScenarioSpec(
        name="tiny",
        description="real end-to-end matrix spec",
        duration_s=300.0,
        topology=TopologySpec(wireless=False, monitor_active=False),
        guarantees=lax,
    )
    save_spec(spec, str(tmp_path / "tiny.json"))
    report = run_matrix(str(tmp_path),
                        MatrixOptions(seed=3, jobs=1, timeout_s=120.0))
    entry = report["specs"][0]
    assert entry["status"] == "success"
    assert entry["guarantees"]["verdict"] != "violated"
    assert entry["summary"]["sntp_samples"] > 0
    # Per-spec numbers live in each entry's summary; the worker ships
    # no telemetry back to the parent.
    assert "telemetry" not in report
    assert set(entry) == {"name", "status", "error", "guarantees",
                          "minimal_guarantees", "summary"}
    assert set(report) == {"format", "seed", "timeout_s", "tags", "specs",
                           "counts", "worst", "verdict"}
    assert report["verdict"]["ok"] is True
    # The document is valid JSON and renders without a crash.
    assert json.loads(report_to_json(report))["format"] == MATRIX_FORMAT
    assert "tiny" in render_matrix_text(report)


def test_matrix_options_validation():
    with pytest.raises(ValueError, match="jobs"):
        MatrixOptions(jobs=0)
    with pytest.raises(ValueError, match="timeout_s"):
        MatrixOptions(timeout_s=0.0)
    # A NaN deadline would never fire, so a hung worker would never die.
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="timeout_s"):
            MatrixOptions(timeout_s=bad)
    # Nothing is retried: a deterministic spec would replay its outcome.
    for removed in ("retries", "backoff_s", "serial"):
        with pytest.raises(TypeError):
            MatrixOptions(**{removed: 1})
