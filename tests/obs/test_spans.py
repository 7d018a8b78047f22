"""Span tracing over the shared TraceLog."""

import pytest

from repro.obs.spans import SPAN_COMPONENT, SpanTracer
from repro.simcore.trace import TraceLog, TraceRecord


class FakeClock:
    """A settable time source for tracer tests."""

    def __init__(self):
        self.t = 0.0

    def now(self):
        return self.t


def make_tracer():
    clock = FakeClock()
    trace = TraceLog()
    return clock, trace, SpanTracer(trace, clock.now)


def test_begin_end_emits_one_record():
    clock, trace, tracer = make_tracer()
    span = tracer.begin("mntp.warmup", reset_count=0)
    clock.t = 5.0
    record = span.end(samples=3)
    assert record is not None
    assert record.component == SPAN_COMPONENT
    assert record.kind == "mntp.warmup"
    assert record.time == 0.0
    assert record.data["t0"] == 0.0
    assert record.data["t1"] == 5.0
    assert record.data["dur"] == 5.0
    assert record.data["reset_count"] == 0
    assert record.data["samples"] == 3
    assert len(trace) == 1


def test_end_is_idempotent():
    clock, trace, tracer = make_tracer()
    span = tracer.begin("x", a=1)
    clock.t = 1.0
    assert span.end(b=2) is not None
    clock.t = 5.0
    assert span.end(b=3) is None
    assert len(trace) == 1
    assert span.data == {"t0": 0.0, "t1": 1.0, "dur": 1.0, "a": 1, "b": 2}


def test_unfinished_span_emits_nothing():
    clock, trace, tracer = make_tracer()
    tracer.begin("never.closed")  # repro: noqa[RES001] the leak is the behavior under test
    assert len(trace) == 0
    assert tracer.open_count == 1


def test_context_manager_closes_span():
    clock, trace, tracer = make_tracer()
    with tracer.span("tuner.tune"):
        clock.t = 2.0
    assert len(trace) == 1
    assert trace.select(kind="tuner.tune")[0].data["dur"] == 2.0


def test_explicit_times_and_negative_duration_clamped():
    clock, trace, tracer = make_tracer()
    span = tracer.begin("x", t=10.0)
    record = span.end(t=4.0)  # end before start: clamp to zero length
    assert record.data["t1"] == 10.0
    assert record.data["dur"] == 0.0


def test_end_all_closes_stragglers():
    clock, trace, tracer = make_tracer()
    tracer.begin("a", k=1)  # repro: noqa[RES001] left open on purpose; end_all() is under test
    tracer.begin("b")  # repro: noqa[RES001] left open on purpose; end_all() is under test
    clock.t = 1.0
    assert tracer.end_all() == 2
    assert tracer.open_count == 0
    assert [(r.kind, r.data) for r in trace] == [
        ("a", {"t0": 0.0, "t1": 1.0, "dur": 1.0, "k": 1}),
        ("b", {"t0": 0.0, "t1": 1.0, "dur": 1.0}),
    ]


def test_span_records_invisible_to_component_queries():
    clock, trace, tracer = make_tracer()
    trace.append(TraceRecord(0.0, "mntp", "offset_accepted", {"offset": 0.001}))
    tracer.begin("sim.run").end()
    assert len(trace.select(component="mntp")) == 1
    assert len(trace.select(component=SPAN_COMPONENT)) == 1


def test_finished_span_is_its_own_record():
    clock, trace, tracer = make_tracer()
    span = tracer.begin("x")
    record = span.end()
    assert record is span
    assert isinstance(span, TraceRecord)
    assert list(trace) == [span]
    assert span.to_dict() == {"t": 0.0, "component": SPAN_COMPONENT, "kind": "x",
                              "data": {"t0": 0.0, "t1": 0.0, "dur": 0.0}}


def test_payload_key_order_and_repeated_end_key():
    clock, trace, tracer = make_tracer()
    span = tracer.begin("sntp.exchange", trace_id="c/1", client="c", server="pool")
    clock.t = 0.25
    span.end(outcome="ok", server="pool#2", offset=0.001)
    assert list(span.data.items()) == [
        ("t0", 0.0), ("t1", 0.25), ("dur", 0.25),
        ("trace_id", "c/1"), ("client", "c"), ("server", "pool#2"),
        ("outcome", "ok"), ("offset", 0.001),
    ]


def test_payload_is_built_once_and_writes_persist():
    clock, trace, tracer = make_tracer()
    span = tracer.begin("x", a=1)
    span.end()
    data = span.data
    assert span.data is data
    data["a"] = 2
    span.data["b"] = 3
    assert trace.select(kind="x")[0].data == {"t0": 0.0, "t1": 0.0, "dur": 0.0,
                                              "a": 2, "b": 3}


def test_spans_with_the_same_attribute_names_share_one_key_tuple():
    clock, trace, tracer = make_tracer()
    first = tracer.begin("x", a=1, b=2)
    second = tracer.begin("x", a=3)
    first.end()
    second.end(b=4)
    assert first._keys is second._keys
    assert first.data == {"t0": 0.0, "t1": 0.0, "dur": 0.0, "a": 1, "b": 2}
    assert second.data == {"t0": 0.0, "t1": 0.0, "dur": 0.0, "a": 3, "b": 4}


def test_open_span_has_no_payload():
    clock, trace, tracer = make_tracer()
    span = tracer.begin("x")  # repro: noqa[RES001] the open state is under test
    with pytest.raises(ValueError, match="still open"):
        _ = span.data
    assert "open" in repr(span)

