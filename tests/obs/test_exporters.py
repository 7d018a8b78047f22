"""Exporters: JSONL round-trip and Chrome trace validity."""

import io
import json

import pytest

from repro.obs.exporters import (
    chrome_trace_events,
    jsonl_lines,
    load_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.telemetry import Telemetry
from repro.simcore.trace import TraceRecord


def sample_snapshot():
    telemetry = Telemetry.standalone()
    telemetry.emit(0.0, "mntp", "offset_accepted", offset=0.002)
    span = telemetry.spans.begin("mntp.warmup", phase="warmup")
    telemetry.advance()
    span.end(ok=1)
    return telemetry.snapshot()


def test_jsonl_roundtrip():
    snap = sample_snapshot()
    buf = io.StringIO()
    lines = write_jsonl(snap, buf)
    assert lines == 1 + len(snap["records"])
    buf.seek(0)
    again = load_jsonl(buf)
    assert again == snap
    assert all(isinstance(r, TraceRecord) for r in again["records"])


def test_load_jsonl_rejects_a_record_without_its_fields():
    buf = io.StringIO(
        '{"format":"mntp-telemetry-v1","type":"meta"}\n'
        '{"component":"mntp","t":1.0,"type":"record"}\n'
    )
    with pytest.raises(ValueError, match="line 2"):
        load_jsonl(buf)


@pytest.mark.parametrize("line, message", [
    ('{"component":"mntp","data":[1],"kind":"k","t":1.0,"type":"record"}',
     "line 2: data: must be a JSON object, got list"),
    ('{"metric":{"name":"q_total"},"type":"metric"}',
     "line 2: unknown entry type 'metric'"),
])
def test_load_jsonl_rejects_a_mistyped_line(line, message):
    """Record data decodes as archives decode it; metric lines are gone."""
    buf = io.StringIO('{"format":"mntp-telemetry-v1","type":"meta"}\n' + line)
    with pytest.raises(ValueError, match=message):
        load_jsonl(buf)


def test_jsonl_is_byte_deterministic():
    a = "\n".join(jsonl_lines(sample_snapshot()))
    b = "\n".join(jsonl_lines(sample_snapshot()))
    assert a == b


def test_load_jsonl_rejects_garbage():
    with pytest.raises(ValueError):
        load_jsonl(io.StringIO("not json\n"))
    with pytest.raises(ValueError):
        load_jsonl(io.StringIO('{"type":"meta","format":"other"}\n'))
    with pytest.raises(ValueError):
        load_jsonl(io.StringIO('{"type":"mystery"}\n'))


def test_chrome_trace_is_valid_json_with_span_events():
    snap = sample_snapshot()
    buf = io.StringIO()
    count = write_chrome_trace(snap, buf)
    document = json.loads(buf.getvalue())
    assert isinstance(document["traceEvents"], list)
    assert len(document["traceEvents"]) == count
    complete = [e for e in document["traceEvents"] if e["ph"] == "X"]
    assert complete and complete[0]["name"] == "mntp.warmup"
    assert complete[0]["dur"] == pytest.approx(1e6)  # 1 manual tick in us
    instants = [e for e in document["traceEvents"] if e["ph"] == "i"]
    assert instants and instants[0]["name"] == "mntp.offset_accepted"
    metas = [e for e in document["traceEvents"] if e["ph"] == "M"]
    assert {m["args"]["name"] for m in metas} >= {"mntp"}


def test_chrome_trace_zero_duration_span():
    telemetry = Telemetry.standalone()
    span = telemetry.spans.begin("mntp.warmup")
    span.end()  # same manual tick: zero duration
    events = chrome_trace_events(telemetry.snapshot())
    complete = [e for e in events if e["ph"] == "X"]
    assert len(complete) == 1
    assert complete[0]["dur"] == 0.0  # present, zero, and non-negative


def test_chrome_trace_clamps_negative_duration():
    # Durations cannot go negative in practice (SpanTracer clamps), but
    # the exporter guards hand-built snapshots too.
    snapshot = {
        "records": [TraceRecord(
            1.0, "span", "mntp.warmup", {"t0": 1.0, "t1": 1.0, "dur": -1e-9}
        )],
    }
    events = chrome_trace_events(snapshot)
    complete = [e for e in events if e["ph"] == "X"]
    assert complete[0]["dur"] == 0.0
