"""TraceLog structured logging."""

import pytest

from repro.simcore.trace import TraceLog, TraceRecord


def test_append_and_len():
    log = TraceLog()
    log.append(TraceRecord(1.0, "mntp", "deferred", {"rssi": -80.0}))
    log.append(TraceRecord(2.0, "mntp", "offset_accepted", {"offset": 0.005}))
    assert len(log) == 2


def test_select_by_component():
    log = TraceLog()
    log.append(TraceRecord(1.0, "a", "x"))
    log.append(TraceRecord(2.0, "b", "x"))
    assert [r.component for r in log.select(component="a")] == ["a"]


def test_select_by_kind():
    log = TraceLog()
    log.append(TraceRecord(1.0, "a", "x"))
    log.append(TraceRecord(2.0, "a", "y"))
    assert [r.kind for r in log.select(kind="y")] == ["y"]


def test_select_both_filters():
    log = TraceLog()
    log.append(TraceRecord(1.0, "a", "x"))
    log.append(TraceRecord(2.0, "a", "y"))
    log.append(TraceRecord(3.0, "b", "y"))
    records = log.select(component="a", kind="y")
    assert len(records) == 1
    assert records[0].time == 2.0


def test_data_payload_preserved():
    log = TraceLog()
    log.append(TraceRecord(1.0, "c", "k", {"value": 42, "name": "test"}))
    (rec,) = log
    assert rec.data == {"value": 42, "name": "test"}


def test_iteration_order():
    log = TraceLog()
    for i in range(5):
        log.append(TraceRecord(float(i), "c", "k"))
    assert [r.time for r in log] == [0.0, 1.0, 2.0, 3.0, 4.0]


def test_clear():
    log = TraceLog()
    log.append(TraceRecord(1.0, "c", "k"))
    log.clear()
    assert len(log) == 0


def make_log():
    log = TraceLog()
    log.append(TraceRecord(0.0, "mntp", "query_sent"))
    log.append(TraceRecord(1.0, "channel", "hints"))
    log.append(TraceRecord(2.0, "mntp", "deferred"))
    log.append(TraceRecord(3.0, "mntp", "query_sent"))
    log.append(TraceRecord(4.0, "span", "sim.run"))
    return log


def test_select_kind_with_optional_component():
    log = make_log()
    assert [r.time for r in log.select(kind="query_sent")] == [0.0, 3.0]
    assert [r.time for r in log.select(component="span", kind="sim.run")] == [4.0]
    assert log.select(component="mntp", kind="sim.run") == []


def test_window_is_half_open():
    log = make_log()
    assert [r.time for r in log.select(t0=1.0, t1=3.0)] == [1.0, 2.0]
    assert [r.time for r in log.select(t0=3.0)] == [3.0, 4.0]
    assert [r.time for r in log.select(t1=1.0)] == [0.0]
    assert log.select(t0=5.0, t1=9.0) == []


def test_window_rejects_inverted_bounds():
    with pytest.raises(ValueError, match="before start"):
        make_log().select(t0=3.0, t1=1.0)


def test_select_combines_all_filters():
    log = make_log()
    records = log.select(component="mntp", kind="query_sent", t0=1.0, t1=4.0)
    assert [r.time for r in records] == [3.0]
