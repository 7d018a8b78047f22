"""End-to-end instrumentation: simulator, Mntp, channel."""

import pytest

from repro.core.config import MntpConfig
from repro.obs.exporters import jsonl_lines
from repro.obs.spans import SPAN_COMPONENT
from repro.obs.telemetry import snapshot_span_kinds
from repro.testbed.experiment import ExperimentRunner
from repro.testbed.nodes import TestbedOptions


@pytest.fixture(scope="module")
def wireless_result():
    return ExperimentRunner(
        seed=7,
        options=TestbedOptions(wireless=True, ntp_correction=True),
        duration=1800.0,
        mntp_config=MntpConfig.baseline_headtohead(),
    ).run()


def test_result_carries_snapshot(wireless_result):
    snap = wireless_result.telemetry
    assert snap is not None
    assert snap["records"]
    assert len(snapshot_span_kinds(snap)) >= 4


def test_expected_metrics_present(wireless_result):
    """Each metric the paper reports lives in a span, record or result."""
    result = wireless_result
    snap = result.telemetry
    (run,) = [r for r in snap["records"]
              if r.component == SPAN_COMPONENT and r.kind == "sim.run"]
    assert run.data["events"] > 0
    assert len(result.sntp) + result.sntp_failures > 0
    assert any(r.component == "mntp" and r.kind == "query_sent"
               for r in snap["records"])
    assert any(r.residual is not None for r in result.mntp_reports)
    assert any(r.kind == "channel.interference" for r in snap["records"])


def test_expected_span_kinds_present(wireless_result):
    kinds = set(snapshot_span_kinds(wireless_result.telemetry))
    assert {"sim.run", "mntp.warmup", "sntp.exchange"} <= kinds
    # One signal per MNTP query: the mntp/query_sent record, no span.
    assert "mntp.query" not in kinds


def test_sim_run_span_counts_every_event():
    """The ``sim.run`` span's ``events`` is the number of callbacks run."""
    from repro.simcore.simulator import Simulator

    sim = Simulator(seed=0)
    for k in range(5):
        sim.call_after(float(k + 1), lambda: None)
    sim.call_after(3.5, lambda: None).cancel()
    sim.run_until(10.0)
    (run,) = sim.trace.select(component=SPAN_COMPONENT, kind="sim.run")
    assert run.data["events"] == 5


def test_interference_spans_are_closed_episodes(wireless_result):
    """Each interference episode is one span; end_all closes stragglers."""
    snap = wireless_result.telemetry
    spans = [r for r in snap["records"]
             if r.component == SPAN_COMPONENT
             and r.kind == "channel.interference"]
    assert spans
    for record in spans:
        assert record.data["dur"] > 0.0
        assert record.data["rssi_dip_db"] != 0.0


def test_telemetry_is_seed_deterministic():
    def snapshot():
        result = ExperimentRunner(
            seed=11,
            options=TestbedOptions(wireless=True, ntp_correction=True),
            duration=600.0,
            mntp_config=MntpConfig.baseline_headtohead(),
        ).run()
        return "\n".join(jsonl_lines(result.telemetry))

    assert snapshot() == snapshot()


def test_telemetry_never_changes_the_simulation():
    """A bare run and a fully instrumented run agree exactly.

    Runners are built from the spec's fields (as ``perfbench`` does) so
    the bare leg can switch telemetry off.
    """
    from repro.testbed.specs import load_scenario

    spec = load_scenario("mntp_wireless_corrected")

    def run(instrument):
        return ExperimentRunner(
            seed=1,
            options=spec.build_options(),
            duration=900.0,
            sntp_cadence=spec.cadence_s,
            run_sntp=spec.run_sntp,
            mntp_config=spec.mntp,
            instrument=instrument,
        ).run()

    bare, instrumented = run(False), run(True)
    assert bare.sntp and bare.mntp_reports
    assert instrumented.sntp == bare.sntp
    assert instrumented.sntp_failures == bare.sntp_failures
    assert instrumented.sntp_failure_times == bare.sntp_failure_times
    assert instrumented.mntp_reports == bare.mntp_reports


def test_uninstrumented_simulation_records_nothing():
    """ntpd, the MN control loop and cross-traffic record through
    telemetry too, so a bare testbed run leaves its trace log empty."""
    from repro.testbed.specs import load_scenario

    spec = load_scenario("mntp_wireless_corrected")
    runner = ExperimentRunner(
        seed=1,
        options=spec.build_options(),
        duration=900.0,
        mntp_config=spec.mntp,
        instrument=False,
    )
    result = runner.run()
    assert runner.testbed.ntpd.updates and runner.testbed.monitor is not None
    assert len(runner.sim.trace) == 0
    assert result.telemetry["records"] == []
