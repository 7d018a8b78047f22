"""Event and event-queue primitives for the discrete-event kernel.

The queue is a binary heap of ``(time, seq, event)`` tuples, so the
heap's sift compares plain floats and ints in C.  The sequence number
makes ordering total and deterministic: two events scheduled for the
same instant fire in the order they were scheduled, and the event
itself is never compared.  Events can be cancelled in O(1); cancelled
entries are skipped lazily when popped.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Tuple


class Event:
    """A scheduled callback.

    Attributes:
        time: Virtual time (seconds) at which the event fires.
        seq: Monotonic tie-breaker assigned by the queue.
        callback: Zero-argument callable invoked at ``time``.
        label: Optional human-readable tag used in traces and repr.
        cancelled: Set by :meth:`cancel`; the queue skips the event.
    """

    __slots__ = ("time", "seq", "callback", "label", "cancelled")

    def __init__(
        self, time: float, seq: int, callback: Callable[[], Any], label: str = ""
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.label = label
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event so the queue skips it when popped."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = " cancelled" if self.cancelled else ""
        return f"Event(t={self.time:.6f}, seq={self.seq}, {self.label!r}{state})"


#: One heap entry; ``(time, seq)`` decides the order.
HeapEntry = Tuple[float, int, Event]


class EventQueue:
    """A deterministic priority queue of :class:`Event` objects."""

    def __init__(self) -> None:
        self._heap: List[HeapEntry] = []
        self._counter = itertools.count()

    def __len__(self) -> int:
        return sum(1 for entry in self._heap if not entry[2].cancelled)

    def push(self, time: float, callback: Callable[[], Any], label: str = "") -> Event:
        """Schedule ``callback`` at virtual ``time`` and return the event."""
        if time != time:  # NaN guard
            raise ValueError("event time must not be NaN")
        seq = next(self._counter)
        event = Event(time, seq, callback, label)
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest live event, or None if empty."""
        while self._heap:
            event = heapq.heappop(self._heap)[2]
            if not event.cancelled:
                return event
        return None

    def peek_time(self) -> Optional[float]:
        """Return the fire time of the earliest live event without popping."""
        while self._heap and self._heap[0][2].cancelled:
            heapq.heappop(self._heap)
        if not self._heap:
            return None
        return self._heap[0][0]

    def clear(self) -> None:
        """Drop all pending events."""
        self._heap.clear()
