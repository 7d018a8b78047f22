"""Telemetry bundle: emission, snapshots, simulator integration."""

import tracemalloc

from repro.obs.telemetry import TELEMETRY_FORMAT, Telemetry, snapshot_span_kinds
from repro.simcore.simulator import Simulator
from repro.simcore.trace import TraceRecord


def test_simulator_bundle_shares_trace_and_clock():
    sim = Simulator(seed=0)
    assert sim.telemetry.trace is sim.trace
    sim.call_after(5.0, lambda: None)
    sim.run_until(10.0)
    # The event loop recorded its span on the simulator's clock, and the
    # span counts the events run.
    (run,) = sim.trace.select(kind="sim.run")
    assert run.data["t1"] == 10.0
    assert run.data["events"] == 1


def test_spans_emits_and_direct_appends_interleave_in_emission_order():
    sim = Simulator(seed=0)
    telemetry = sim.telemetry

    def step():
        span = telemetry.spans.begin("mntp.warmup")
        telemetry.emit(sim.now, "mntp", "query_sent", server="a")
        sim.trace.append(TraceRecord(sim.now, "channel", "busy"))
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
    """A count is the number of its records, exact the moment one lands."""
    sim = Simulator(seed=0)
    seen = []

    def bump():
        sim.telemetry.emit(sim.now, "mntp", "query_sent")
        seen.append(len(sim.trace.select(component="mntp", kind="query_sent")))

    for k in range(3):
        sim.call_after(float(k + 1), bump)
    sim.run_until(10.0)
    assert seen == [1, 2, 3]


def test_disabled_bundle_records_nothing():
    sim = Simulator(seed=0, instrument=False)
    telemetry = sim.telemetry

    def step():
        with telemetry.spans.span("mntp.warmup"):
            telemetry.emit(sim.now, "mntp", "query_sent", server="a")

    sim.call_after(1.0, step)
    sim.run_until(2.0)
    assert len(sim.trace) == 0
    assert telemetry.snapshot()["records"] == []


def test_snapshot_shape_and_helpers():
    telemetry = Telemetry(now_fn=lambda: 0.0)
    with telemetry.spans.span("phase.one"):
        pass
    snap = telemetry.snapshot()
    assert snap == {"format": TELEMETRY_FORMAT, "records": snap["records"]}
    assert snapshot_span_kinds(snap) == ["phase.one"]
    assert len(snap["records"]) == 1


def test_snapshot_shares_the_logs_records_and_freezes_membership():
    telemetry = Telemetry(now_fn=lambda: 0.0)
    for i in range(5):
        telemetry.emit(float(i), "mntp", "query_sent", n=i)
    with telemetry.spans.span("phase.one"):
        pass
    records = telemetry.snapshot()["records"]
    logged = list(telemetry.trace)
    assert len(records) == len(logged) == 6
    for i, record in enumerate(records):
        assert isinstance(record, TraceRecord)
        assert record is logged[i]
    telemetry.emit(9.0, "mntp", "offset_accepted")
    assert len(telemetry.trace) == 7
    assert len(records) == 6
    assert all(r.kind != "offset_accepted" for r in records)


def test_snapshot_does_not_copy_records():
    telemetry = Telemetry(now_fn=lambda: 0.0)
    for i in range(10_000):
        telemetry.emit(float(i), "mntp", "query_sent", server="a")
    tracemalloc.start()
    try:
        snap = telemetry.snapshot()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(snap["records"]) == 10_000
    # One list of 10,000 references is ~80 KiB; a dict per record
    # would be ~2 MiB.
    assert peak < 200 * 1024
