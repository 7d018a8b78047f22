"""Simulator scheduling, callback loops, and run control."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.simcore.simulator import Simulator


def test_call_after_fires_at_right_time(sim):
    fired = []
    sim.call_after(5.0, lambda: fired.append(sim.now))
    sim.run_until(10.0)
    assert fired == [5.0]
    assert sim.now == 10.0


def test_call_at_absolute(sim):
    fired = []
    sim.call_at(3.0, lambda: fired.append(sim.now))
    sim.run_until(3.0)
    assert fired == [3.0]


def test_cannot_schedule_in_past(sim):
    sim.run_until(10.0)
    with pytest.raises(ValueError):
        sim.call_at(5.0, lambda: None)


def test_negative_delay_rejected(sim):
    with pytest.raises(ValueError):
        sim.call_after(-1.0, lambda: None)


def test_run_until_backwards_rejected(sim):
    sim.run_until(10.0)
    with pytest.raises(ValueError):
        sim.run_until(5.0)


def test_events_beyond_horizon_stay_queued(sim):
    fired = []
    sim.call_after(100.0, lambda: fired.append(1))
    sim.run_until(50.0)
    assert fired == []
    sim.run_until(150.0)
    assert fired == [1]


def test_nested_scheduling(sim):
    fired = []

    def outer():
        fired.append(("outer", sim.now))
        sim.call_after(2.0, lambda: fired.append(("inner", sim.now)))

    sim.call_after(1.0, outer)
    sim.run_until(10.0)
    assert fired == [("outer", 1.0), ("inner", 3.0)]


def test_process_yields_delays(sim):
    """A protocol loop is a callback that schedules its own next step."""
    ticks = []

    def step(remaining):
        ticks.append(sim.now)
        if remaining > 1:
            sim.call_after(2.0, lambda: step(remaining - 1))

    sim.call_after(0.0, lambda: step(3))
    sim.run_until(10.0)
    assert ticks == [0.0, 2.0, 4.0]


def test_process_negative_delay_raises(sim):
    """A step that schedules into the past raises out of the run, and the
    run's span is still closed, marked as an error."""
    sim.call_after(1.0, lambda: sim.call_after(-1.0, lambda: None))
    with pytest.raises(ValueError, match="non-negative"):
        sim.run_until(5.0)
    (run,) = sim.trace.select(kind="sim.run")
    assert run.data["error"] is True
    assert run.data["events"] == 0


def test_process_stop(sim):
    """Cancelling a loop's pending step stops it."""
    ticks = []
    pending = []

    def step():
        ticks.append(sim.now)
        pending.append(sim.call_after(1.0, step))

    sim.call_after(0.0, step)
    sim.run_until(2.5)
    pending[-1].cancel()
    sim.run_until(10.0)
    assert ticks == [0.0, 1.0, 2.0]


def test_process_waiter_resumes_on_condition(sim):
    """A loop waiting on a condition polls it from a callback."""
    state = {"ready": False, "resumed_at": None}

    def poll():
        if state["ready"]:
            state["resumed_at"] = sim.now
        else:
            sim.call_after(0.5, poll)

    sim.call_after(0.0, poll)
    sim.call_after(3.2, lambda: state.update(ready=True))
    sim.run_until(10.0)
    assert state["resumed_at"] == 3.5


def test_deterministic_same_seed():
    def run(seed):
        sim = Simulator(seed=seed)
        values = []

        def step():
            values.append(float(sim.rng.stream("x").normal()))
            if len(values) < 5:
                sim.call_after(1.0, step)

        sim.call_after(0.0, step)
        sim.run_until(10.0)
        return values

    assert run(7) == run(7)
    assert run(7) != run(8)


@pytest.mark.parametrize(
    "run",
    [lambda sim: sim.run_until(math.nan)],
    ids=["run_until"],
)
def test_nan_end_time_rejected(sim, run):
    fired = []
    sim.call_at(1e6, lambda: fired.append(sim.now))
    with pytest.raises(ValueError, match="NaN"):
        run(sim)
    assert fired == []
    assert sim.now == 0.0
    sim.run_until(2e6)
    assert fired == [1e6]


def _schedule_run(schedule, cancels):
    """Replay ``schedule`` on a fresh simulator; return (sim, fired log).

    ``schedule[i]`` is event i's fire time; event ``i`` cancels event
    ``cancels[i]`` when it fires (``None``: nothing), and events in
    ``cancels["pre"]`` are cancelled before the run starts.
    """
    sim = Simulator(seed=0)
    fired = []
    events = []

    def make(i):
        def callback():
            fired.append((sim.now, i))
            target = cancels["fire"][i]
            if target is not None:
                events[target].cancel()

        return callback

    for i, t in enumerate(schedule):
        events.append(sim.call_at(t, make(i), f"ev{i}"))
    for i in cancels["pre"]:
        events[i].cancel()
    return sim, fired


def _reference_order(schedule, cancels):
    """The (time, index) firing order a correct kernel produces."""
    cancelled = set(cancels["pre"])
    order = []
    for t, i in sorted((t, i) for i, t in enumerate(schedule)):
        if i in cancelled:
            continue
        order.append((t, i))
        if cancels["fire"][i] is not None:
            cancelled.add(cancels["fire"][i])
    return order


@st.composite
def _schedules(draw):
    # Integer-valued times so that ties (same instant, FIFO by seq) are common.
    times = draw(st.lists(st.integers(0, 12).map(float), min_size=1, max_size=40))
    n = len(times)
    index = st.integers(0, n - 1)
    cancels = {
        "pre": draw(st.sets(index, max_size=n)),
        "fire": draw(st.lists(st.none() | index, min_size=n, max_size=n)),
    }
    cuts = sorted(draw(st.lists(st.integers(0, 14).map(float), max_size=5)))
    return times, cancels, cuts


@given(_schedules())
def test_stepped_and_single_run_until_fire_alike(case):
    times, cancels, cuts = case
    expected = _reference_order(times, cancels)

    stepped, stepped_fired = _schedule_run(times, cancels)
    for cut in cuts + [20.0]:
        stepped.run_until(cut)
        assert stepped.now == cut

    single, single_fired = _schedule_run(times, cancels)
    single.run_until(20.0)

    assert stepped_fired == expected
    assert single_fired == expected
    assert stepped._heap == single._heap == []
