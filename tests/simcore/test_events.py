"""Event ordering, cancellation, and edge cases on the simulator's heap."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.simcore.simulator import Simulator


def test_empty_queue_pops_none(sim):
    sim.run_until(5.0)
    assert sim.now == 5.0
    (run,) = sim.trace.select(kind="sim.run")
    assert run.data["events"] == 0


def test_fifo_within_same_time(sim):
    order = []
    sim.call_at(1.0, lambda: order.append("a"))
    sim.call_after(1.0, lambda: order.append("b"))
    sim.call_at(1.0, lambda: order.append("c"))
    sim.run_until(1.0)
    assert order == ["a", "b", "c"]


def test_time_ordering(sim):
    labels = []
    for t, label in ((3.0, "late"), (1.0, "early"), (2.0, "mid")):
        sim.call_at(t, lambda label=label: labels.append((sim.now, label)), label)
    sim.run_until(5.0)
    assert labels == [(1.0, "early"), (2.0, "mid"), (3.0, "late")]


def test_cancelled_event_skipped(sim):
    fired = []
    first = sim.call_at(1.0, lambda: fired.append(("first", sim.now)), "first")
    sim.call_at(2.0, lambda: fired.append(("second", sim.now)), "second")
    first.cancel()
    sim.run_until(1.5)
    assert fired == []
    assert sim.now == 1.5
    sim.run_until(3.0)
    assert fired == [("second", 2.0)]


def test_nan_time_rejected(sim):
    with pytest.raises(ValueError, match="NaN"):
        sim.call_at(math.nan, lambda: None)
    with pytest.raises(ValueError, match="NaN"):
        sim.call_after(math.nan, lambda: None)
    assert sim._heap == []


@given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=200))
def test_pop_order_is_sorted(times):
    sim = Simulator(seed=0)
    fired = []
    for t in times:
        sim.call_at(t, lambda: fired.append(sim.now))
    sim.run_until(1e6)
    assert fired == sorted(times)


@given(
    st.lists(st.floats(min_value=0, max_value=1e6), min_size=2, max_size=100),
    st.data(),
)
def test_cancellation_never_loses_other_events(times, data):
    sim = Simulator(seed=0)
    fired = []
    events = [sim.call_at(t, lambda i=i: fired.append(i)) for i, t in enumerate(times)]
    cancel_idx = data.draw(
        st.sets(st.integers(0, len(events) - 1), max_size=len(events))
    )
    for i in cancel_idx:
        events[i].cancel()
    sim.run_until(1e6)
    assert sorted(fired) == [i for i in range(len(times)) if i not in cancel_idx]
