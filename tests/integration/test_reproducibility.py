"""Determinism: identical seeds produce identical experiments."""

import dataclasses
import hashlib

import pytest

from repro.cellular import CellularExperiment, CellularOptions
from repro.core.config import MntpConfig
from repro.logs.analysis import LogStudy
from repro.logs.generator import GeneratorOptions
from repro.logs.servers import server_by_id
from repro.obs import jsonl_lines
from repro.testbed.experiment import ExperimentRunner
from repro.testbed.nodes import TestbedOptions
from repro.testbed.specs import load_scenario


def _mntp_run(seed):
    return ExperimentRunner(
        seed=seed,
        options=TestbedOptions(wireless=True, ntp_correction=True),
        duration=600.0,
        mntp_config=MntpConfig.baseline_headtohead(),
    ).run()


def test_testbed_run_reproducible():
    a = _mntp_run(3)
    b = _mntp_run(3)
    assert [p.offset for p in a.sntp] == [p.offset for p in b.sntp]
    assert [r.offset for r in a.mntp_reports] == [r.offset for r in b.mntp_reports]
    assert [r.accepted for r in a.mntp_reports] == [r.accepted for r in b.mntp_reports]


def test_testbed_run_seed_sensitive():
    a = _mntp_run(3)
    c = _mntp_run(4)
    assert [p.offset for p in a.sntp] != [p.offset for p in c.sntp]


def test_log_study_reproducible():
    opts = GeneratorOptions(scale=1e-4, min_clients=20, max_clients=40,
                            max_requests_per_client=10)
    servers = [server_by_id("JW1")]

    def run(seed):
        study = LogStudy(seed=seed, options=opts, servers=servers)
        return study.table1()[0]

    a, b = run(5), run(5)
    assert a.generated_clients == b.generated_clients
    assert a.generated_measurements == b.generated_measurements
    assert a.sntp_clients == b.sntp_clients


def test_cellular_reproducible():
    opts = CellularOptions(duration=600.0, cadence=30.0)
    a = CellularExperiment(seed=2, options=opts).run()
    b = CellularExperiment(seed=2, options=opts).run()
    assert [p.offset for p in a.offsets] == [p.offset for p in b.offsets]


def _telemetry_jsonl(name):
    spec = load_scenario(name)
    spec = dataclasses.replace(spec, duration_s=min(spec.duration_s, 600.0))
    result = spec.build_runner(seed=3).run()
    return list(jsonl_lines(result.telemetry))


#: sha256 and line count of the canonical telemetry JSONL of each
#: scenario at seed 3, capped at 600 simulated seconds.  A change to a
#: random stream, an event order or the export format moves these;
#: such a change must update them and say why.
_TELEMETRY_PINS = {
    "wired_corrected": (
        "389d2e751ca08517c2c5c0e11ec94918fbf1f38b0b1142fc1912f737ba16471a",
        590,
    ),
    "mntp_wireless_corrected": (
        "ccc1c34607c0862b60b58475549570b0f7ac2709411684ab766d1019ca3796bd",
        2213,
    ),
    "chaos_smoke": (
        "bdf57364a309328db01d63c107cad5538d930b97483da182cce78abd6752f8a4",
        1790,
    ),
}


@pytest.mark.parametrize("name", sorted(_TELEMETRY_PINS))
def test_telemetry_bytes_pinned_per_seed(name):
    lines = _telemetry_jsonl(name)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (digest, len(lines)) == _TELEMETRY_PINS[name]
