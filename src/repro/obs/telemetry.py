"""The per-run telemetry bundle: metrics + spans + trace.

One :class:`Telemetry` object accompanies each run.  Inside a
simulation the :class:`~repro.simcore.simulator.Simulator` constructs it
over its own virtual clock and trace log, so everything recorded is a
deterministic function of the seed.  Outside a simulation (the tuner's
grid search, which replays a recorded trace with no virtual clock) use
:meth:`Telemetry.standalone`, which runs on a :class:`ManualClock` —
a deterministic step counter standing in for a time axis.

:meth:`Telemetry.snapshot` freezes the metrics into plain dicts and
the record membership into a new list of the log's own
:class:`~repro.simcore.trace.TraceRecord` objects, for persistence and
the exporters (:mod:`repro.obs.exporters`), which alone build the dict
form of a record.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanTracer
from repro.simcore.trace import TraceLog, TraceRecord

#: Format tag stamped into snapshots and JSONL exports.
TELEMETRY_FORMAT = "mntp-telemetry-v1"


class ManualClock:
    """A deterministic, manually-advanced time axis.

    Used where telemetry is wanted but no simulator clock exists (the
    tuner replays traces in a plain loop); ``tick()`` advances by one
    step so spans get distinct, reproducible begin/end coordinates.
    """

    def __init__(self, start: float = 0.0, step: float = 1.0) -> None:
        if step <= 0:
            raise ValueError("step must be positive")
        self._now = float(start)
        self._step = float(step)

    def now(self) -> float:
        """Current position on the axis."""
        return self._now

    def tick(self) -> float:
        """Advance by one step and return the new position."""
        self._now += self._step
        return self._now


class _NullInstrument:
    """No-op stand-in for Counter/Gauge/Histogram in a disabled bundle."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        """Discard a counter increment."""

    def set(self, value: float) -> None:
        """Discard a gauge write."""

    def add(self, amount: float) -> None:
        """Discard a gauge delta."""

    def observe(self, value: float) -> None:
        """Discard a histogram observation."""


class _NullMetricsRegistry:
    """Registry facade that records nothing (``instrument=False`` runs)."""

    __slots__ = ("_null",)

    def __init__(self) -> None:
        self._null = _NullInstrument()

    def counter(self, name: str, help: str = "") -> _NullInstrument:
        """Return the shared no-op instrument."""
        return self._null

    def gauge(self, name: str, help: str = "") -> _NullInstrument:
        """Return the shared no-op instrument."""
        return self._null

    def histogram(self, name: str, help: str = "", buckets: Any = None) -> _NullInstrument:
        """Return the shared no-op instrument."""
        return self._null

    def get(self, name: str) -> None:
        """Nothing is ever registered."""
        return None

    def value(self, name: str, default: float = 0.0) -> float:
        """Every read sees the default."""
        return default

    def names(self) -> List[str]:
        """Nothing is ever registered."""
        return []

    def snapshot(self) -> List[Dict[str, Any]]:
        """Nothing to freeze."""
        return []

    def __len__(self) -> int:
        return 0

    def __contains__(self, name: str) -> bool:
        return False


class _NullSpan:
    """Always-closed span returned by a disabled tracer."""

    __slots__ = ()
    open = False

    def end(self, t: Optional[float] = None, **attrs: Any) -> None:
        """Nothing to close."""
        return None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


class _NullSpanTracer:
    """Span tracer facade that opens nothing (``instrument=False``)."""

    __slots__ = ("_span",)

    def __init__(self) -> None:
        self._span = _NullSpan()

    def begin(self, name: str, t: Optional[float] = None, **attrs: Any) -> _NullSpan:
        """Return the shared closed span."""
        return self._span

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        """Return the shared closed span."""
        return self._span

    @property
    def open_count(self) -> int:
        """Never any open spans."""
        return 0

    def end_all(self, t: Optional[float] = None) -> int:
        """Never any stragglers."""
        return 0


class Telemetry:
    """Metrics registry + span tracer + trace log for one run.

    Args:
        now_fn: The run's time axis (virtual seconds in a simulation).
        trace: Existing log to share (the simulator passes its own so
            span records land next to component events); a fresh log is
            created when omitted.
        enabled: ``False`` swaps in no-op metrics and spans and drops
            every :meth:`emit`, so an uninstrumented run records
            nothing and measures the bare simulator cost.
    """

    def __init__(
        self,
        now_fn: Callable[[], float],
        trace: Optional[TraceLog] = None,
        enabled: bool = True,
    ) -> None:
        self.trace = trace if trace is not None else TraceLog()
        self._now_fn = now_fn
        self._clock: Optional[ManualClock] = None
        self.enabled = bool(enabled)
        if not self.enabled:
            self.metrics: Any = _NullMetricsRegistry()
            self.spans: Any = _NullSpanTracer()
            return
        self.metrics = MetricsRegistry()
        self.spans = SpanTracer(self.trace, now_fn)

    @classmethod
    def standalone(cls, start: float = 0.0, step: float = 1.0) -> "Telemetry":
        """A telemetry bundle on a :class:`ManualClock` (non-sim layers)."""
        clock = ManualClock(start=start, step=step)
        telemetry = cls(now_fn=clock.now)
        telemetry._clock = clock
        return telemetry

    @property
    def now(self) -> float:
        """Current position on the bundle's time axis."""
        return float(self._now_fn())

    @property
    def manual(self) -> bool:
        """Whether the bundle runs on a manually-advanced clock."""
        return self._clock is not None

    def advance(self, steps: int = 1) -> float:
        """Advance a standalone bundle's manual clock by ``steps`` ticks.

        Raises:
            RuntimeError: On a simulator-backed bundle, whose time only
                moves with the event loop.
        """
        if self._clock is None:
            raise RuntimeError("telemetry clock is not manually advanceable")
        if steps < 1:
            raise ValueError("steps must be >= 1")
        now = self._clock.now()
        for _ in range(steps):
            now = self._clock.tick()
        return now

    # -- emission -----------------------------------------------------------

    def emit(self, t: float, component: str, kind: str, **data: Any) -> None:
        """Append one trace record (nothing when the bundle is disabled)."""
        if self.enabled:
            self.trace.append(TraceRecord(t, component, kind, data))

    def count(self, name: str, amount: float = 1.0) -> None:
        """Add ``amount`` to the counter ``name``."""
        self.metrics.counter(name).inc(amount)

    def flush(self) -> None:
        """Do nothing: every record and count is applied when made.

        Kept because the ``perfbench/`` layer ledger wraps it by name.
        """

    def snapshot(self) -> Dict[str, Any]:
        """Freeze metrics into plain dicts and the record list as it stands.

        ``"records"`` is a new list holding the log's own
        :class:`TraceRecord` objects, not copies: records are immutable
        by convention, and a record appended later stays out of it.
        """
        return {
            "format": TELEMETRY_FORMAT,
            "metrics": self.metrics.snapshot(),
            "records": list(self.trace),
        }


def snapshot_span_kinds(snapshot: Dict[str, Any]) -> List[str]:
    """Distinct span kinds in a snapshot, sorted."""
    from repro.obs.spans import SPAN_COMPONENT

    return sorted(
        {
            r.kind
            for r in snapshot.get("records", [])
            if r.component == SPAN_COMPONENT
        }
    )


def snapshot_metric_names(snapshot: Dict[str, Any]) -> List[str]:
    """Distinct metric names in a snapshot, sorted."""
    return sorted({m["name"] for m in snapshot.get("metrics", [])})
