"""Ring-buffer sink: staging, auto-flush, drain-on-read, self-metering."""

import pytest

from repro.obs import (
    DEFAULT_RING_CAPACITY,
    MetricsRegistry,
    RingBufferSink,
    Telemetry,
)
from repro.simcore.trace import TraceLog


def make_sink(capacity=8):
    trace = TraceLog()
    metrics = MetricsRegistry()
    sink = RingBufferSink(trace, metrics, capacity=capacity)
    return trace, metrics, sink


def test_emit_stages_without_touching_the_log():
    trace, _metrics, sink = make_sink()
    sink.emit(1.0, "mntp", "query_sent", {"server": "a"})
    assert sink.pending
    # The raw list is untouched until a flush/drain.
    assert len(trace._records) == 0


def test_flush_materialises_in_emission_order():
    trace, _metrics, sink = make_sink()
    for i in range(5):
        sink.emit(float(i), "mntp", "query_sent", {"i": i})
    assert sink.flush() == 5
    assert [r.data["i"] for r in trace] == [0, 1, 2, 3, 4]
    assert not sink.pending


def test_ring_full_triggers_auto_flush():
    trace, _metrics, sink = make_sink(capacity=3)
    for i in range(3):
        sink.emit(float(i), "c", "k", {"i": i})
    # Capacity reached: the third emit flushed synchronously.
    assert not sink.pending
    assert len(trace) == 3


def test_reading_the_log_drains_the_sink():
    trace, _metrics, sink = make_sink()
    sink.emit(0.0, "c", "k", {"i": 0})
    # len/iter/filter on TraceLog drain the attached sink first, so
    # consumers always see every staged record.
    assert len(trace) == 1
    assert [r.data["i"] for r in trace] == [0]
    assert not sink.pending


def test_direct_append_interleaves_with_staged_records():
    trace, _metrics, sink = make_sink()
    sink.emit(0.0, "c", "staged", {})
    trace.emit(1.0, "c", "direct")  # drains the sink before appending
    sink.emit(2.0, "c", "staged", {})
    assert [r.kind for r in trace] == ["staged", "direct", "staged"]


def test_counter_deltas_batch_until_flush():
    trace, metrics, sink = make_sink()
    for _ in range(10):
        sink.count("mntp_query_sent_total")
    sink.count("mntp_deferred_total", 2.0)
    assert metrics.value("mntp_query_sent_total") == 0.0  # still staged
    sink.flush()
    assert metrics.value("mntp_query_sent_total") == 10.0
    assert metrics.value("mntp_deferred_total") == 2.0
    assert not sink.pending
    del trace


def test_self_metering_counters():
    trace, metrics, sink = make_sink()
    for i in range(4):
        sink.emit(float(i), "c", "k", {})
    sink.count("x_total")
    sink.count("y_total")
    sink.flush()
    sink.flush()  # empty: not counted
    assert metrics.value("obs_overhead_records_total") == 4.0
    assert metrics.value("obs_overhead_flushes_total") == 1.0
    assert metrics.value("obs_overhead_metric_deltas_total") == 2.0
    assert sorted(metrics.names()) == [
        "obs_overhead_flushes_total",
        "obs_overhead_metric_deltas_total",
        "obs_overhead_records_total",
        "x_total",
        "y_total",
    ]
    del trace


def test_capacity_validation():
    with pytest.raises(ValueError):
        make_sink(capacity=0)
    assert DEFAULT_RING_CAPACITY >= 1


def test_telemetry_emit_routes_through_ring():
    telemetry = Telemetry(now_fn=lambda: 0.0, ring=True)
    assert telemetry.ring.capacity == DEFAULT_RING_CAPACITY
    telemetry.emit(0.0, "mntp", "query_sent", server="a")
    telemetry.count("mntp_query_sent_total")
    assert telemetry.ring.pending
    snap = telemetry.snapshot()  # snapshot flushes
    assert [r["kind"] for r in snap["records"]] == ["query_sent"]
    names = {m["name"] for m in snap["metrics"]}
    assert "mntp_query_sent_total" in names
    assert "obs_overhead_records_total" in names


def test_telemetry_without_ring_is_direct():
    telemetry = Telemetry(now_fn=lambda: 0.0)
    assert telemetry.ring is None
    telemetry.emit(0.0, "mntp", "query_sent", server="a")
    telemetry.count("mntp_query_sent_total")
    assert len(telemetry.trace) == 1
    assert telemetry.metrics.value("mntp_query_sent_total") == 1.0


def test_ring_keeps_runs_byte_deterministic():
    def run():
        telemetry = Telemetry(now_fn=lambda: 0.0, ring=True)
        # Long enough to wrap the ring twice: auto-flushes land
        # mid-stream.
        for i in range(2 * DEFAULT_RING_CAPACITY + 3):
            telemetry.emit(float(i), "c", "k", i=i)
            telemetry.count("k_total")
        return telemetry.snapshot()

    assert run() == run()
