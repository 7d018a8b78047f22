"""The discrete-event simulator.

There is one programming model: callbacks.  ``sim.call_at(t, fn)`` and
``sim.call_after(dt, fn)`` schedule a zero-argument callable, and a
protocol loop ("send, wait 5 s, send again") is a callback that
schedules its own next step.  ``sim.run_until(t)`` advances virtual
time by firing every due callback in order.

The pending callbacks are one binary heap of ``(time, seq, event)``
tuples, so the heap's sift compares plain floats and ints in C.  The
sequence number makes ordering total and deterministic: two callbacks
scheduled for the same instant fire in the order they were scheduled,
and the event itself is never compared.  An event is cancelled in
O(1); its entry is dropped when it reaches the top of the heap.

Time is a float of simulated seconds starting at 0.0.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Tuple

from repro.simcore.random import RngRegistry
from repro.simcore.trace import TraceLog


class Event:
    """A scheduled callback; its time and sequence number live in its
    heap entry.

    Attributes:
        callback: Zero-argument callable invoked when the event fires.
        label: Optional human-readable tag used in repr and tests.
        cancelled: Set by :meth:`cancel`; the run skips the event.
    """

    __slots__ = ("callback", "label", "cancelled")

    def __init__(self, callback: Callable[[], Any], label: str = "") -> None:
        self.callback = callback
        self.label = label
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event so the run skips it when it comes due."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = " cancelled" if self.cancelled else ""
        return f"Event({self.label!r}{state})"


#: One heap entry; ``(time, seq)`` decides the order.
HeapEntry = Tuple[float, int, Event]


class Simulator:
    """Virtual-time discrete-event simulator.

    Attributes:
        now: Current virtual time in seconds.
        rng: Registry of named random streams for components.
        trace: Structured log of component events (optional use).
        telemetry: Metrics/span bundle on this simulator's virtual
            clock, sharing :attr:`trace` (see :mod:`repro.obs`).
        datagram_ids: Per-run datagram ident sequence; network senders
            allocate from here so trace records carry run-local idents
            and same-seed runs stay byte-identical within one process.

    Args:
        seed: Root seed for every named random stream.
        instrument: ``False`` runs with no-op telemetry (the ``bare``
            leg of ``perfbench/``).
    """

    def __init__(self, seed: int = 0, instrument: bool = True) -> None:
        # Imported here, not at module scope: repro.obs and repro.net
        # depend on repro.simcore, so top-level imports would be circular.
        from repro.net.message import DatagramIdAllocator
        from repro.obs.telemetry import Telemetry

        self.now = 0.0
        self._heap: List[HeapEntry] = []
        self._seq = itertools.count()
        self.rng = RngRegistry(seed)
        self.trace = TraceLog()
        self.datagram_ids = DatagramIdAllocator()
        self.telemetry = Telemetry(
            now_fn=lambda: self.now,
            trace=self.trace,
            enabled=instrument,
        )
        self._events_total = self.telemetry.metrics.counter(
            "sim_events_total", "events executed by the simulator loop"
        )

    # -- scheduling ------------------------------------------------------
    #
    # Each method pushes its own heap entry rather than one calling the
    # other, so a wrapper around either sees exactly the calls made to it.

    def call_at(self, time: float, callback: Callable[[], Any], label: str = "") -> Event:
        """Schedule ``callback`` at absolute virtual ``time``."""
        if time != time:  # NaN guard: it would never come due
            raise ValueError("event time must not be NaN")
        if time < self.now:
            raise ValueError(f"cannot schedule in the past: {time} < {self.now}")
        event = Event(callback, label)
        heapq.heappush(self._heap, (time, next(self._seq), event))
        return event

    def call_after(self, delay: float, callback: Callable[[], Any], label: str = "") -> Event:
        """Schedule ``callback`` after ``delay`` simulated seconds."""
        if delay != delay:  # NaN guard
            raise ValueError("event time must not be NaN")
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        event = Event(callback, label)
        heapq.heappush(self._heap, (self.now + delay, next(self._seq), event))
        return event

    # -- execution -------------------------------------------------------

    def run_until(self, end_time: float) -> None:
        """Fire live events with time <= ``end_time`` in (time, seq)
        order; leave ``now`` at ``end_time``.

        Events scheduled beyond ``end_time`` stay queued for a later
        call.  A cancelled entry is dropped when it reaches the top.
        """
        if end_time != end_time:  # NaN guard: every comparison below is False
            raise ValueError("end time must not be NaN")
        if end_time < self.now:
            raise ValueError(f"end time {end_time} is before now {self.now}")
        heap = self._heap
        pop = heapq.heappop
        executed = 0
        span = self.telemetry.spans.begin("sim.run", mode="run_until")
        try:
            while heap:
                time, _, event = heap[0]
                if time > end_time:
                    break
                pop(heap)
                if event.cancelled:
                    continue
                if time > self.now:
                    self.now = time
                event.callback()
                executed += 1
        except BaseException:
            # Close the run span on the crash path too, or the trace
            # loses exactly the run that went wrong.
            span.end(events=executed, error=True)
            raise
        finally:
            self._events_total.inc(executed)
        if end_time > self.now:
            self.now = end_time
        span.end(events=executed)
