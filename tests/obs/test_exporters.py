"""Exporters: JSONL determinism and Chrome trace validity."""

import io
import json

import pytest

from repro.obs.exporters import (
    chrome_trace_events,
    jsonl_lines,
    write_chrome_trace,
)
from repro.obs.telemetry import Telemetry
from repro.simcore.trace import TraceRecord


def sample_snapshot():
    now = [0.0]
    telemetry = Telemetry(now_fn=lambda: now[0])
    telemetry.emit(0.0, "mntp", "offset_accepted", offset=0.002)
    span = telemetry.spans.begin("mntp.warmup", phase="warmup")
    now[0] = 1.0
    span.end(ok=1)
    return telemetry.snapshot()


def test_jsonl_is_byte_deterministic():
    a = "\n".join(jsonl_lines(sample_snapshot()))
    b = "\n".join(jsonl_lines(sample_snapshot()))
    assert a == b


def test_chrome_trace_is_valid_json_with_span_events():
    snap = sample_snapshot()
    buf = io.StringIO()
    count = write_chrome_trace(snap, buf)
    document = json.loads(buf.getvalue())
    assert isinstance(document["traceEvents"], list)
    assert len(document["traceEvents"]) == count
    complete = [e for e in document["traceEvents"] if e["ph"] == "X"]
    assert complete and complete[0]["name"] == "mntp.warmup"
    assert complete[0]["dur"] == pytest.approx(1e6)  # 1 s in us
    instants = [e for e in document["traceEvents"] if e["ph"] == "i"]
    assert instants and instants[0]["name"] == "mntp.offset_accepted"
    metas = [e for e in document["traceEvents"] if e["ph"] == "M"]
    assert {m["args"]["name"] for m in metas} >= {"mntp"}


def test_chrome_trace_zero_duration_span():
    telemetry = Telemetry(now_fn=lambda: 5.0)
    span = telemetry.spans.begin("mntp.warmup")
    span.end()  # same instant: zero duration
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
