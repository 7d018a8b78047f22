"""Span tracing over the shared TraceLog."""

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
    span = tracer.begin("x")
    assert span.end() is not None
    assert span.end() is None
    assert len(trace) == 1


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
    tracer.begin("a")  # repro: noqa[RES001] left open on purpose; end_all() is under test
    tracer.begin("b")  # repro: noqa[RES001] left open on purpose; end_all() is under test
    clock.t = 1.0
    assert tracer.end_all() == 2
    assert tracer.open_count == 0
    assert len(trace) == 2


def test_span_records_invisible_to_component_queries():
    clock, trace, tracer = make_tracer()
    trace.append(TraceRecord(0.0, "mntp", "offset_accepted", {"offset": 0.001}))
    tracer.begin("sim.run").end()
    assert len(trace.select(component="mntp")) == 1
    assert len(trace.select(component=SPAN_COMPONENT)) == 1
