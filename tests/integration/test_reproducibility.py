"""Determinism: identical seeds produce identical experiments."""

import dataclasses
import hashlib
import io

import pytest

from repro.cellular.phone import CellularExperiment, CellularOptions
from repro.core.config import MntpConfig
from repro.logs.analysis import LogStudy
from repro.logs.generator import GeneratorOptions
from repro.logs.servers import server_by_id
from repro.obs.exporters import jsonl_lines, write_chrome_trace
from repro.testbed.experiment import ExperimentRunner
from repro.testbed.nodes import TestbedOptions
from repro.testbed.persistence import save_result
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


def _pinned_run(name):
    """The scenario's spec and its seed-3 result, capped at 600 s."""
    spec = load_scenario(name)
    spec = dataclasses.replace(spec, duration_s=min(spec.duration_s, 600.0))
    return spec, spec.build_runner(seed=3).run()


def _telemetry_jsonl(name):
    return list(jsonl_lines(_pinned_run(name)[1].telemetry))


#: sha256 and line count of the canonical telemetry JSONL of each
#: scenario at seed 3, capped at 600 simulated seconds.  A change to a
#: random stream, an event order or the export format moves these;
#: such a change must update them and say why.  Last moved when the
#: metrics registry went: each pin is the earlier export with its
#: ``metric`` lines dropped and ``metric_count`` taken off the meta
#: line, every record line unchanged.
_TELEMETRY_PINS = {
    "wired_corrected": (
        "2c810961237fc8126d21218175adde47fa87dff2122e54271a6fe3b57782e98f",
        584,
    ),
    "mntp_wireless_corrected": (
        "9c3eae94bb87713f79fb833cb923697b6bd090176658f895c825f1e4c5fdc7b0",
        2199,
    ),
    "chaos_smoke": (
        "255a0260aa57313ba1f7e3663c624a8c7d690ba24ced2d60547bacbbd27c1acf",
        1773,
    ),
}


@pytest.mark.parametrize("name", sorted(_TELEMETRY_PINS))
def test_telemetry_bytes_pinned_per_seed(name):
    lines = _telemetry_jsonl(name)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (digest, len(lines)) == _TELEMETRY_PINS[name]


#: sha256 and length of ``wired_corrected``'s other two serialised
#: forms at seed 3, capped at 600 s: the ``run --save`` archive (with
#: the scenario's guarantees) and the Chrome trace-event export
#: (length = event count).  The in-memory record form may change;
#: these bytes may not.  The archive pin last moved when archives
#: stopped carrying ``telemetry.metrics`` and the ``explain`` report
#: (the earlier archive with both keys deleted); the Chrome trace did
#: not move.
_ARCHIVE_PIN = (
    "a115b83f475ff02347cbe70146093b62ca29b6a9d74394e48f6906a59cebf2ac",
    183402,
)
_CHROME_TRACE_PIN = (
    "aed48d4ea3a7087de545a6130f177f41f96c46eb68f52a9e4b65ebc2bf4e0308",
    588,
)


def test_saved_archive_and_chrome_trace_bytes_pinned():
    spec, result = _pinned_run("wired_corrected")
    archive = io.StringIO()
    save_result(result, archive, guarantees=spec.guarantees)
    text = archive.getvalue()
    assert (hashlib.sha256(text.encode()).hexdigest(), len(text)) == _ARCHIVE_PIN
    chrome = io.StringIO()
    events = write_chrome_trace(result.telemetry, chrome)
    digest = hashlib.sha256(chrome.getvalue().encode()).hexdigest()
    assert (digest, events) == _CHROME_TRACE_PIN
