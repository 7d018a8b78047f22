"""Tuner trace format and serialisation."""

import io
import json
import re

import pytest

from repro.tuner.traces import OffsetTrace, TraceEntry


def _entry(t, rssi=-50.0, noise=-92.0, offsets=None, truth=None):
    return TraceEntry(
        time=t, rssi_dbm=rssi, noise_dbm=noise,
        offsets=offsets or {"0.pool.ntp.org": 0.001}, true_offset=truth,
    )


def test_append_and_len():
    trace = OffsetTrace()
    trace.append(_entry(0.0))
    trace.append(_entry(5.0))
    assert len(trace) == 2
    assert trace.duration == 5.0


def test_time_order_enforced():
    trace = OffsetTrace()
    trace.append(_entry(10.0))
    with pytest.raises(ValueError):
        trace.append(_entry(5.0))


def test_entry_hints():
    e = _entry(0.0, rssi=-60.0, noise=-90.0)
    assert e.hints.snr_margin_db == 30.0


def test_sources_enumeration():
    trace = OffsetTrace()
    trace.append(_entry(0.0, offsets={"a": 0.1, "b": None}))
    trace.append(_entry(5.0, offsets={"c": 0.2}))
    assert trace.sources() == ["a", "b", "c"]


def test_json_roundtrip_entry():
    e = _entry(3.5, offsets={"a": 0.01, "b": None}, truth=0.002)
    back = TraceEntry.from_json(e.to_json())
    assert back.time == e.time
    assert back.offsets == e.offsets
    assert back.true_offset == e.true_offset


def test_save_load_roundtrip():
    trace = OffsetTrace(cadence=5.0)
    for i in range(10):
        trace.append(_entry(i * 5.0, offsets={"x": 0.001 * i, "y": None}))
    buf = io.StringIO()
    trace.save(buf)
    buf.seek(0)
    loaded = OffsetTrace.load(buf)
    assert len(loaded) == 10
    assert loaded.cadence == 5.0
    assert loaded.entries[3].offsets == trace.entries[3].offsets


def test_entry_json_keys():
    data = json.loads(_entry(1.0, truth=0.5).to_json())
    assert data == {"time": 1.0, "rssi": -50.0, "noise": -92.0,
                    "offsets": {"0.pool.ntp.org": 0.001}, "true_offset": 0.5}


@pytest.mark.parametrize("line,message", [
    ('{"time": 0.0, "noise": -92.0}',
     "trace entry: missing keys ['rssi']"),
    ('{"time": 0.0, "rssi": true, "noise": -92.0}',
     "trace entry.rssi must be a finite number, got True"),
    ('{"time": 0.0, "rssi": -50.0, "noise": -92.0, "offsets": {"a": "x"}}',
     "trace entry.offsets['a'] must be a finite number, got 'x'"),
    ("[1]", "trace entry: must be a JSON object, got list"),
], ids=["no_rssi", "bool_rssi", "string_offset", "non_object"])
def test_malformed_entry_raises_value_error_naming_its_path(line, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        TraceEntry.from_json(line)


def test_load_rejects_foreign_file():
    buf = io.StringIO('{"format": "something-else"}\n')
    with pytest.raises(ValueError):
        OffsetTrace.load(buf)


def test_load_empty_file():
    assert len(OffsetTrace.load(io.StringIO(""))) == 0


def test_duration_empty():
    assert OffsetTrace().duration == 0.0
