"""Telemetry bundle: clocks, emission, snapshots, simulator integration."""

import pytest

from repro.obs import (
    TELEMETRY_FORMAT,
    ManualClock,
    Telemetry,
    snapshot_metric_names,
    snapshot_span_kinds,
)
from repro.simcore.simulator import Simulator


def test_manual_clock_ticks():
    clock = ManualClock(start=2.0, step=0.5)
    assert clock.now() == 2.0
    assert clock.tick() == 2.5
    assert clock.now() == 2.5
    with pytest.raises(ValueError):
        ManualClock(step=0.0)


def test_standalone_bundle_is_manual():
    telemetry = Telemetry.standalone()
    assert telemetry.manual
    assert telemetry.now == 0.0
    assert telemetry.advance(3) == 3.0
    with pytest.raises(ValueError):
        telemetry.advance(0)


def test_simulator_bundle_is_not_manual():
    sim = Simulator(seed=0)
    assert not sim.telemetry.manual
    with pytest.raises(RuntimeError):
        sim.telemetry.advance()


def test_simulator_bundle_shares_trace_and_clock():
    sim = Simulator(seed=0)
    assert sim.telemetry.trace is sim.trace
    sim.call_after(5.0, lambda: None)
    sim.run_until(10.0)
    assert sim.telemetry.now == 10.0
    # The event loop recorded its span and its counter.
    assert sim.telemetry.metrics.value("sim_events_total") == 1.0
    assert len(sim.trace.select(kind="sim.run")) == 1


def test_spans_emits_and_direct_appends_interleave_in_emission_order():
    sim = Simulator(seed=0)
    telemetry = sim.telemetry

    def step():
        span = telemetry.spans.begin("mntp.warmup")
        telemetry.emit(sim.now, "mntp", "query_sent", server="a")
        sim.trace.emit(sim.now, "channel", "busy")
        span.end(samples=1)
        telemetry.emit(sim.now, "mntp", "offset_accepted")

    sim.call_after(1.0, step)
    sim.call_after(2.0, step)
    sim.run_until(3.0)
    kinds = [r.kind for r in sim.trace]
    assert kinds == 2 * [
        "query_sent", "busy", "mntp.warmup", "offset_accepted",
    ] + ["sim.run"]
    span = sim.trace.select(kind="mntp.warmup")[0]
    assert span.data == {"t0": 1.0, "t1": 1.0, "dur": 0.0, "samples": 1}


def test_counted_value_reads_exactly_mid_run():
    sim = Simulator(seed=0)
    seen = []

    def bump():
        sim.telemetry.count("mntp_query_sent_total")
        seen.append(sim.telemetry.metrics.value("mntp_query_sent_total"))

    for k in range(3):
        sim.call_after(float(k + 1), bump)
    sim.run_until(10.0)
    assert seen == [1.0, 2.0, 3.0]


def test_disabled_bundle_records_nothing():
    sim = Simulator(seed=0, instrument=False)
    telemetry = sim.telemetry

    def step():
        with telemetry.spans.span("mntp.warmup"):
            telemetry.emit(sim.now, "mntp", "query_sent", server="a")
            telemetry.count("mntp_query_sent_total")
            telemetry.metrics.gauge("mntp_offset_s").set(1.0)

    sim.call_after(1.0, step)
    sim.run_until(2.0)
    assert len(sim.trace) == 0
    assert telemetry.metrics.names() == []
    assert telemetry.snapshot()["records"] == []
    assert telemetry.snapshot()["metrics"] == []


def test_snapshot_shape_and_helpers():
    telemetry = Telemetry.standalone()
    telemetry.metrics.counter("a_total").inc()
    telemetry.metrics.gauge("b_gauge").set(2)
    with telemetry.spans.span("phase.one"):
        telemetry.advance()
    snap = telemetry.snapshot()
    assert snap["format"] == TELEMETRY_FORMAT
    assert snapshot_metric_names(snap) == ["a_total", "b_gauge"]
    assert snapshot_span_kinds(snap) == ["phase.one"]
    assert len(snap["records"]) == 1
