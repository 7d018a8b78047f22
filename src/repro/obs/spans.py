"""Span-based tracing over the simulation :class:`TraceLog`.

A *span* is a named interval on the virtual-time axis —
``mntp.warmup``, ``channel.interference``, ``sim.run``.  Completed
spans are appended to the run's existing :class:`TraceLog` as ordinary
records under component :data:`SPAN_COMPONENT` with ``kind`` set to the
span name, so every current trace consumer (the Figure-7 bench, the
tests) keeps working unchanged while exporters gain interval data.

Spans in event-driven code rarely fit a ``with`` block, so the tracer
offers both styles::

    handle = tracer.begin("mntp.warmup")
    ...                       # event callbacks fire
    handle.end(samples=12)

    with tracer.span("tuner.tune"):
        ...

A span that is never ended produces no record (the run stopped mid
flight); :meth:`SpanTracer.end_all` closes stragglers at shutdown.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.simcore.trace import TraceLog, TraceRecord

#: Component name span records are filed under in the TraceLog.
SPAN_COMPONENT = "span"


class Span:
    """One open (or finished) span.

    Attributes:
        name: Span kind (dotted taxonomy, e.g. ``"mntp.warmup"``).
        t0: Virtual time the span opened.
        t1: Virtual time it closed (None while open).
        attrs: Attributes attached at begin/end.
    """

    __slots__ = ("name", "t0", "t1", "attrs", "_tracer")

    def __init__(self, tracer: "SpanTracer", name: str, t0: float, attrs: dict) -> None:
        self._tracer = tracer
        self.name = name
        self.t0 = t0
        self.t1: Optional[float] = None
        self.attrs = attrs

    @property
    def open(self) -> bool:
        """Whether the span has not been ended yet."""
        return self.t1 is None

    def end(self, t: Optional[float] = None, **attrs: Any) -> Optional[TraceRecord]:
        """Close the span and append its record; idempotent.

        The close path is inlined here (rather than delegating to the
        tracer) because every span in the run pays it — one less call
        frame on a path ``perfbench/``'s ``obs`` layer meters.

        Args:
            t: Explicit end time (defaults to the tracer's clock).
            attrs: Extra attributes merged into the span record.
        """
        if self.t1 is not None:
            return None
        tracer = self._tracer
        t0 = self.t0
        t1 = tracer._now_fn() if t is None else float(t)
        if t1 < t0:
            t1 = t0
        self.t1 = t1
        span_attrs = self.attrs
        if attrs:
            span_attrs.update(attrs)
        tracer._open.pop(id(self), None)
        data = {"t0": t0, "t1": t1, "dur": t1 - t0}
        if span_attrs:
            data.update(span_attrs)
        record = TraceRecord(t0, SPAN_COMPONENT, self.name, data)
        tracer.trace.append(record)
        return record

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.end()


class SpanTracer:
    """Opens and closes spans against a :class:`TraceLog`.

    Args:
        trace: Destination log (shared with the simulation components).
        now_fn: Callable returning the current time on the span axis —
            virtual seconds inside a simulator, a manual tick outside.
    """

    def __init__(self, trace: TraceLog, now_fn: Callable[[], float]) -> None:
        self.trace = trace
        self._now_fn = now_fn
        # Keyed by id() for O(1) removal on finish; insertion-ordered,
        # so end_all still closes stragglers oldest-first.
        self._open: Dict[int, Span] = {}

    def begin(self, name: str, t: Optional[float] = None, **attrs: Any) -> Span:
        """Open a span named ``name`` at time ``t`` (default: now)."""
        t0 = self._now_fn() if t is None else float(t)
        span = Span(self, name, t0, attrs)
        self._open[id(span)] = span
        return span

    def span(self, name: str, **attrs: Any) -> Span:
        """Open a span for use as a context manager."""
        return self.begin(name, **attrs)

    @property
    def open_count(self) -> int:
        """Number of spans currently open."""
        return len(self._open)

    def end_all(self, t: Optional[float] = None) -> int:
        """Close every open span (shutdown path); returns how many."""
        closed = 0
        for span in list(self._open.values()):
            span.end(t=t)
            closed += 1
        return closed
