"""Span-based tracing over the simulation :class:`TraceLog`.

A *span* is a named interval on the virtual-time axis —
``mntp.warmup``, ``channel.interference``, ``sim.run``.  A
:class:`Span` is itself a :class:`TraceRecord` under component
:data:`SPAN_COMPONENT` with ``kind`` set to the span name: ending it
appends the span object to the run's :class:`TraceLog`, so every
trace consumer (the Figure-7 bench, ``explain``, the exporters) reads
it like any other record while exporters gain interval data.

A finished span keeps its attributes as a values tuple under a key
tuple shared by every span with the same attribute names; its
``data`` dict (``t0``, ``t1``, ``dur``, then the attributes) is built
on first read and cached.  Per-packet spans are most of a run's
records and most are never read, so they never pay for a dict.

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

from typing import Any, Callable, Dict, Optional, Tuple

from repro.simcore.trace import TraceLog, TraceRecord

#: Component name span records are filed under in the TraceLog.
SPAN_COMPONENT = "span"

#: The base class's ``data`` slot, which :class:`Span` hides behind its
#: ``data`` property and uses as the cache of the built payload.
_payload: Any = TraceRecord.data


class Span(TraceRecord):
    """One open (or finished) span; once ended, its own trace record.

    ``time`` is the open time and ``kind`` the span name (dotted
    taxonomy, e.g. ``"mntp.warmup"``).

    Attributes:
        t1: Virtual time it closed (None while open).
    """

    __slots__ = ("t1", "_tracer", "_keys", "_values")

    def __init__(self, tracer: "SpanTracer", name: str, t0: float, attrs: dict) -> None:
        self.time = t0
        self.component = SPAN_COMPONENT
        self.kind = name
        self.t1: Optional[float] = None
        # None once ended: a finished record must not keep the tracer
        # (and through its clock, the whole simulator) alive.
        self._tracer: Optional[SpanTracer] = tracer
        self._keys: Tuple[str, ...] = ()
        # The begin attributes while open; their values, in ``_keys``
        # order, once ended.
        self._values: Any = attrs

    @property
    def open(self) -> bool:
        """Whether the span has not been ended yet."""
        return self.t1 is None

    @property
    def data(self) -> Dict[str, Any]:  # type: ignore[override]
        """``t0``, ``t1``, ``dur`` and the attributes, built on first read.

        The same dict comes back on every read, so a write to it
        persists.

        Raises:
            ValueError: The span is still open.
        """
        try:
            return _payload.__get__(self, Span)
        except AttributeError:
            pass
        t1 = self.t1
        if t1 is None:
            raise ValueError(f"span {self.kind!r} is still open")
        t0 = self.time
        data = {"t0": t0, "t1": t1, "dur": t1 - t0}
        data.update(zip(self._keys, self._values))
        _payload.__set__(self, data)
        return data

    def end(self, t: Optional[float] = None, **attrs: Any) -> Optional["Span"]:
        """Close the span and append it to the log; idempotent.

        The close path is inlined here (rather than delegating to the
        tracer) because every span in the run pays it — one less call
        frame on a path ``perfbench/``'s ``obs`` layer meters.  An end
        attribute that repeats a begin one keeps the begin position and
        takes the end value.

        Args:
            t: Explicit end time (defaults to the tracer's clock).
            attrs: Extra attributes merged into the span record.

        Returns:
            The span itself, now a finished record; None if it had
            already ended.
        """
        tracer = self._tracer
        if tracer is None:
            return None
        t0 = self.time
        t1 = tracer._now_fn() if t is None else float(t)
        if t1 < t0:
            t1 = t0
        self.t1 = t1
        span_attrs = self._values
        if attrs:
            span_attrs.update(attrs)
        keys = tuple(span_attrs)
        self._keys = tracer._key_tuples.setdefault(keys, keys)
        self._values = tuple(span_attrs.values())
        self._tracer = None
        tracer._open.pop(id(self), None)
        tracer.trace.append(self)
        return self

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.end()

    def __repr__(self) -> str:
        if self.t1 is None:
            return f"Span(kind={self.kind!r}, time={self.time!r}, open)"
        return super().__repr__()


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
        # One shared key tuple per distinct attribute-name sequence.
        self._key_tuples: Dict[Tuple[str, ...], Tuple[str, ...]] = {}

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
