"""Self-tests of the benchmark at tiny lengths.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
from worker import run_leg  # noqa: E402
from workloads import make_workloads  # noqa: E402

TINY = make_workloads("tiny")


def _cli(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _declared(kind: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("name", sorted(TINY))
def test_every_workload_runs_and_keeps_its_shape(name):
    leg = run_leg(TINY[name], seed=1, leg="timed", budget_s=0.0)
    (one,) = leg["passes"]
    assert one["error"] is None
    assert one["host_s"] > 0 and one["sim_hours"] > 0 and one["exchanges"] > 0
    assert one["ref_s"] > 0


def test_declared_metrics_match_the_runner():
    assert _declared("end_to_end") == run.END_TO_END_UNITS
    assert _declared("per_layer") == run.PER_LAYER_UNITS


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_is_emitted_with_its_unit(name, trace):
    proc = _cli("--workload", name, "--seed", "3", "--seconds", "0.1",
                "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    units = run.PER_LAYER_UNITS if trace == "1" else run.END_TO_END_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for name_, unit in units.items():
        assert name_ in proc.stdout  # the human report names it too


@pytest.mark.parametrize("name", ["wireless_h2h", "tuner_grid"])
def test_traced_leg_leaves_simulated_statistics_identical(name):
    untraced = run_leg(TINY[name], seed=2, leg="timed", budget_s=0.0)
    traced = run_leg(TINY[name], seed=2, leg="traced", budget_s=0.0)
    assert traced["passes"][0]["digest"] == untraced["passes"][0]["digest"]
    assert run.judge([untraced, traced]) == (2, 0, [])
    layers = traced["layers"]
    self_total = sum(seconds for _, seconds, _ in traced["rows"])
    assert self_total == pytest.approx(layers["trace.wall_s"], rel=1e-9)
    assert layers["simcore.events"] > 0 and layers["ntp.codec.calls"] > 0


def test_bare_leg_matches_on_telemetry_free_fields():
    timed = run_leg(TINY["wired_sntp"], seed=2, leg="timed", budget_s=0.0)
    bare = run_leg(TINY["wired_sntp"], seed=2, leg="bare", budget_s=0.0)
    assert bare["passes"][0]["digest"]["telemetry"] != timed["passes"][0]["digest"]["telemetry"]
    assert run.judge([timed, bare]) == (2, 0, [])


def test_a_broken_output_check_counts_as_a_failure(monkeypatch):
    workload = make_workloads("tiny")["wired_sntp"]
    good = run_leg(workload, seed=1, leg="timed", budget_s=0.0)
    monkeypatch.setattr(workload, "check", lambda result: "deliberately broken")
    broken = run_leg(workload, seed=1, leg="timed", budget_s=0.0)
    attempted, failed, problems = run.judge([good, broken])
    assert (attempted, failed) == (2, 1)
    assert "deliberately broken" in problems[0]


def test_a_changed_statistic_counts_as_a_failure():
    workload = TINY["wired_sntp"]
    first = run_leg(workload, seed=1, leg="timed", budget_s=0.0)
    other_seed = run_leg(workload, seed=5, leg="timed", budget_s=0.0)
    other_seed["leg"] = "traced"
    attempted, failed, problems = run.judge([first, other_seed])
    assert (attempted, failed) == (2, 1)
    assert "differ" in problems[0]


def test_a_raising_pass_counts_as_a_failure(monkeypatch):
    workload = make_workloads("tiny")["tuner_grid"]

    def explode(state, instrument):
        raise RuntimeError("boom")

    monkeypatch.setattr(workload, "execute", explode)
    leg = run_leg(workload, seed=1, leg="timed", budget_s=0.0)
    assert run.judge([leg])[1] == 1


def test_fails_without_printing_a_result_when_the_program_is_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _cli("--workload", "wired_sntp", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
