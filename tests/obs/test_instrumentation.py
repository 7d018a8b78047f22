"""End-to-end instrumentation: simulator, Mntp, channel, tuner."""

import pytest

from repro.core.config import MntpConfig
from repro.obs.exporters import jsonl_lines
from repro.obs.spans import SPAN_COMPONENT
from repro.obs.telemetry import Telemetry, snapshot_metric_names, snapshot_span_kinds
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
    assert len(snapshot_metric_names(snap)) >= 5
    assert len(snapshot_span_kinds(snap)) >= 4


def test_expected_metrics_present(wireless_result):
    names = set(snapshot_metric_names(wireless_result.telemetry))
    assert {
        "sim_events_total",
        "sntp_queries_total",
        "mntp_query_sent_total",
        "mntp_abs_residual_ms",
        "channel_interference_episodes_total",
    } <= names


def test_expected_span_kinds_present(wireless_result):
    kinds = set(snapshot_span_kinds(wireless_result.telemetry))
    assert {"sim.run", "mntp.warmup", "sntp.exchange"} <= kinds
    # One signal per MNTP query: the mntp/query_sent record, no span.
    assert "mntp.query" not in kinds


def test_sim_events_counter_matches_span(wireless_result):
    snap = wireless_result.telemetry
    runs = [r for r in snap["records"]
            if r.component == SPAN_COMPONENT and r.kind == "sim.run"]
    assert len(runs) == 1
    events = next(m for m in snap["metrics"] if m["name"] == "sim_events_total")
    assert runs[0].data["events"] == events["value"] > 0


def test_interference_counter_covers_spans(wireless_result):
    """Every closed episode span has a counted start (open ones too)."""
    snap = wireless_result.telemetry
    spans = [r for r in snap["records"]
             if r.component == SPAN_COMPONENT
             and r.kind == "channel.interference"]
    episodes = next(
        m for m in snap["metrics"]
        if m["name"] == "channel_interference_episodes_total"
    )
    assert episodes["value"] >= len(spans)
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


def test_tuner_search_spans_and_counter():
    from repro.tuner.logger import LoggerOptions, TraceLogger
    from repro.tuner.searcher import ParameterSearcher, SearchSpace

    trace = TraceLogger(seed=2, options=LoggerOptions(duration=1800.0)).run()
    telemetry = Telemetry.standalone()
    searcher = ParameterSearcher(
        trace,
        space=SearchSpace(
            warmup_periods=(30 * 60,),
            warmup_wait_times=(15.0,),
            regular_wait_times=(15 * 60, 30 * 60),
            reset_periods=(240 * 60,),
        ),
        telemetry=telemetry,
    )
    results = searcher.search()
    snap = telemetry.snapshot()
    evals = [r for r in snap["records"] if r.kind == "tuner.eval"]
    assert len(evals) == len(results) == 2
    counter = next(
        m for m in snap["metrics"] if m["name"] == "tuner_evaluations_total"
    )
    assert counter["value"] == 2.0
    for record in evals:
        assert "rmse_ms" in record.data
        assert "requests" in record.data


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
