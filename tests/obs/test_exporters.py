"""Exporters: JSONL round-trip, Chrome trace validity, Prometheus text."""

import io
import json

import pytest

from repro.obs.exporters import (
    chrome_trace_events,
    jsonl_lines,
    load_jsonl,
    render_prometheus,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.telemetry import Telemetry
from repro.simcore.trace import TraceRecord


def sample_snapshot():
    telemetry = Telemetry.standalone()
    telemetry.metrics.counter("q_total", help="queries").inc(3)
    telemetry.metrics.gauge("drift_ppm").set(11.5)
    hist = telemetry.metrics.histogram("lat_ms", buckets=(1.0, 10.0))
    hist.observe(0.5)
    hist.observe(5.0)
    hist.observe(50.0)
    telemetry.emit(0.0, "mntp", "offset_accepted", offset=0.002)
    span = telemetry.spans.begin("mntp.warmup", phase="warmup")
    telemetry.advance()
    span.end(ok=1)
    return telemetry.snapshot()


def test_jsonl_roundtrip():
    snap = sample_snapshot()
    buf = io.StringIO()
    lines = write_jsonl(snap, buf)
    assert lines == 1 + len(snap["metrics"]) + len(snap["records"])
    buf.seek(0)
    again = load_jsonl(buf)
    assert again["metrics"] == snap["metrics"]
    assert again["records"] == snap["records"]
    assert all(isinstance(r, TraceRecord) for r in again["records"])


def test_load_jsonl_rejects_a_record_without_its_fields():
    buf = io.StringIO(
        '{"format":"mntp-telemetry-v1","type":"meta"}\n'
        '{"component":"mntp","t":1.0,"type":"record"}\n'
    )
    with pytest.raises(ValueError, match="line 2"):
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


def test_prometheus_rendering():
    text = render_prometheus(sample_snapshot())
    assert "# TYPE q_total counter" in text
    assert "q_total 3" in text
    assert "# HELP q_total queries" in text
    assert "drift_ppm 11.5" in text
    assert 'lat_ms_bucket{le="1"} 1' in text
    assert 'lat_ms_bucket{le="10"} 2' in text
    assert 'lat_ms_bucket{le="+Inf"} 3' in text
    assert "lat_ms_sum 55.5" in text
    assert "lat_ms_count 3" in text


def test_prometheus_empty_snapshot():
    assert render_prometheus({"metrics": [], "records": []}) == ""


def test_prometheus_escapes_help_text():
    telemetry = Telemetry.standalone()
    telemetry.metrics.counter(
        "esc_total", help='multi\nline with \\ backslash and "quotes"'
    ).inc()
    text = render_prometheus(telemetry.snapshot())
    # HELP escapes backslash and newline; quotes pass through unescaped.
    assert (
        '# HELP esc_total multi\\nline with \\\\ backslash and "quotes"'
        in text
    )
    assert "\nline" not in text.replace("\\n", "")


def test_prometheus_histogram_inf_bucket_is_monotone():
    telemetry = Telemetry.standalone()
    hist = telemetry.metrics.histogram("m_ms", buckets=(1.0, 10.0))
    for value in (0.5, 0.7, 5.0, 50.0, 60.0, 70.0):
        hist.observe(value)
    text = render_prometheus(telemetry.snapshot())
    counts = [
        int(line.rsplit(" ", 1)[1])
        for line in text.splitlines()
        if line.startswith("m_ms_bucket")
    ]
    assert counts == sorted(counts)  # cumulative series never decreases
    assert counts[-1] == 6  # +Inf equals the total observation count
    assert "m_ms_count 6" in text


def test_prometheus_inf_bucket_tolerates_missing_overflow_entry():
    # A hand-built snapshot whose bucket_counts matches bounds in length
    # (no explicit overflow slot) must still render a monotone series.
    snapshot = {
        "metrics": [{
            "name": "odd_ms", "type": "histogram", "help": "",
            "bounds": [1.0, 10.0], "bucket_counts": [2, 3],
            "sum": 20.0, "count": 5,
        }],
        "records": [],
    }
    text = render_prometheus(snapshot)
    assert 'odd_ms_bucket{le="1"} 2' in text
    assert 'odd_ms_bucket{le="10"} 5' in text
    assert 'odd_ms_bucket{le="+Inf"} 5' in text  # not double-counted


def test_prometheus_label_value_escaping():
    from repro.obs.exporters import _escape_label_value

    assert _escape_label_value('a"b') == 'a\\"b'
    assert _escape_label_value("a\\b") == "a\\\\b"
    assert _escape_label_value("a\nb") == "a\\nb"
    assert _escape_label_value("plain") == "plain"


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
        "metrics": [],
        "records": [TraceRecord(
            1.0, "span", "mntp.warmup", {"t0": 1.0, "t1": 1.0, "dur": -1e-9}
        )],
    }
    events = chrome_trace_events(snapshot)
    complete = [e for e in events if e["ph"] == "X"]
    assert complete[0]["dur"] == 0.0
