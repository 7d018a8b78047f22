"""The discrete-event simulator.

Two programming models are supported:

* **Callbacks** — ``sim.call_at(t, fn)`` / ``sim.call_after(dt, fn)``.
* **Processes** — generator functions that ``yield`` either a float
  delay in simulated seconds or a :class:`Waiter` condition object.
  Processes are the natural way to express protocol loops ("send,
  wait 5 s, send again") without inverting control flow.

Time is a float of simulated seconds starting at 0.0 by default.
``sim.run_until(t)`` advances virtual time by draining the event queue.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Optional, Union

from repro.simcore.events import Event, EventQueue
from repro.simcore.random import RngRegistry
from repro.simcore.trace import TraceLog


class Waiter:
    """A resumable condition a process can yield on.

    ``poll_interval`` controls how often the predicate is re-evaluated;
    ``predicate`` receives the current virtual time and returns True when
    the process may resume.
    """

    def __init__(
        self,
        predicate: Callable[[float], bool],
        poll_interval: float = 1.0,
        label: str = "",
    ) -> None:
        if poll_interval <= 0:
            raise ValueError("poll interval must be positive")
        self.predicate = predicate
        self.poll_interval = poll_interval
        self.label = label


ProcessGen = Generator[Union[float, Waiter], None, None]


class SimProcess:
    """A running generator-based process inside a :class:`Simulator`."""

    def __init__(self, sim: "Simulator", gen: ProcessGen, name: str) -> None:
        self._sim = sim
        self._gen = gen
        self.name = name
        self.finished = False
        self._pending: Optional[Event] = None
        self._label = f"proc:{name}"

    def _advance(self) -> None:
        if self.finished:
            return
        try:
            yielded = self._gen.send(None)
        except StopIteration:
            self.finished = True
            return
        self._schedule(yielded)

    def _schedule(self, yielded: Union[float, Waiter]) -> None:
        if isinstance(yielded, Waiter):
            self._wait_on(yielded)
            return
        delay = float(yielded)
        if delay < 0:
            raise ValueError(f"process {self.name!r} yielded negative delay {delay}")
        self._pending = self._sim.call_after(delay, self._advance, label=self._label)

    def _wait_on(self, waiter: Waiter) -> None:
        label = f"wait:{self.name}:{waiter.label}"

        def poll() -> None:
            if self.finished:
                return
            if waiter.predicate(self._sim.now):
                self._advance()
            else:
                self._pending = self._sim.call_after(waiter.poll_interval, poll, label)

        poll()

    def stop(self) -> None:
        """Terminate the process; any pending wakeup is cancelled."""
        self.finished = True
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None


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
        start_time: Initial virtual time.
        instrument: ``False`` runs with no-op telemetry (the ``bare``
            leg of ``perfbench/``).
    """

    def __init__(
        self,
        seed: int = 0,
        start_time: float = 0.0,
        instrument: bool = True,
    ) -> None:
        # Imported here, not at module scope: repro.obs and repro.net
        # depend on repro.simcore, so top-level imports would be circular.
        from repro.net.message import DatagramIdAllocator
        from repro.obs.telemetry import Telemetry

        self.now = float(start_time)
        self._queue = EventQueue()
        self.rng = RngRegistry(seed)
        self.trace = TraceLog()
        self.datagram_ids = DatagramIdAllocator()
        self.telemetry = Telemetry(
            now_fn=lambda: self.now,
            trace=self.trace,
            ring=True,
            enabled=instrument,
        )
        self._events_total = self.telemetry.metrics.counter(
            "sim_events_total", "events executed by the simulator loop"
        )
        self._running = False

    # -- scheduling ------------------------------------------------------

    def call_at(self, time: float, callback: Callable[[], Any], label: str = "") -> Event:
        """Schedule ``callback`` at absolute virtual ``time``."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past: {time} < {self.now}")
        return self._queue.push(time, callback, label)

    def call_after(self, delay: float, callback: Callable[[], Any], label: str = "") -> Event:
        """Schedule ``callback`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        return self._queue.push(self.now + delay, callback, label)

    def spawn(self, gen: ProcessGen, name: str = "process") -> SimProcess:
        """Start a generator-based process immediately."""
        proc = SimProcess(self, gen, name)
        self.call_after(0.0, proc._advance, label=f"spawn:{name}")
        return proc

    # -- execution -------------------------------------------------------

    def run_until(self, end_time: float) -> None:
        """Drain events with fire time <= ``end_time``; leave now = end_time."""
        if end_time != end_time:  # NaN guard: every comparison below is False
            raise ValueError("end time must not be NaN")
        if end_time < self.now:
            raise ValueError(f"end time {end_time} is before now {self.now}")
        self._drain(end_time, "run_until", advance=True)

    def run_for(self, duration: float) -> None:
        """Advance virtual time by ``duration`` seconds."""
        self.run_until(self.now + duration)

    def run_to_completion(self, max_time: float = 1e12) -> None:
        """Run until the event queue drains (bounded by ``max_time``)."""
        if max_time != max_time:  # NaN guard
            raise ValueError("max time must not be NaN")
        self._drain(max_time, "run_to_completion", advance=False)

    def _drain(self, end_time: float, mode: str, advance: bool) -> None:
        """Fire live events with time <= ``end_time`` in (time, seq) order.

        The one loop behind both ``run_*`` calls.  It pops heap entries
        directly; a cancelled entry is dropped when it reaches the top.
        With ``advance``, ``now`` ends at ``end_time`` even when the
        queue runs dry or :meth:`stop` cuts the run short.
        """
        heap = self._queue._heap
        pop = heapq.heappop
        self._running = True
        executed = 0
        span = self.telemetry.spans.begin("sim.run", mode=mode)
        try:
            while self._running and heap:
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
            self.telemetry.flush()
            raise
        finally:
            self._running = False
            self._events_total.inc(executed)
        if advance and end_time > self.now:
            self.now = end_time
        span.end(events=executed)
        self.telemetry.flush()

    def stop(self) -> None:
        """Stop the current run_* call after the in-flight event returns."""
        self._running = False

    @property
    def pending_events(self) -> int:
        """Number of live events still queued."""
        return len(self._queue)
