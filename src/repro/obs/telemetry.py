"""The per-run telemetry bundle: spans + trace.

One :class:`Telemetry` object accompanies each run.  The
:class:`~repro.simcore.simulator.Simulator` constructs it over its own
virtual clock and trace log, so everything recorded is a deterministic
function of the seed.

:meth:`Telemetry.snapshot` freezes the record membership into a new
list of the log's own :class:`~repro.simcore.trace.TraceRecord`
objects, for persistence and the exporters (:mod:`repro.obs.exporters`),
which alone build the dict form of a record.  Counts live where their
events do: a ``sim.run`` span's ``events`` attribute, the number of
``mntp/<kind>`` records, or a result or client field (see
``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.obs.spans import SpanTracer
from repro.simcore.trace import TraceLog, TraceRecord

#: Format tag stamped into snapshots and JSONL exports.
TELEMETRY_FORMAT = "mntp-telemetry-v1"


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
    """Span tracer + trace log for one run.

    Args:
        now_fn: The run's time axis (virtual seconds in a simulation).
        trace: Existing log to share (the simulator passes its own so
            span records land next to component events); a fresh log is
            created when omitted.
        enabled: ``False`` swaps in no-op spans and drops
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
        self.enabled = bool(enabled)
        self.spans: Any = (
            SpanTracer(self.trace, now_fn) if self.enabled else _NullSpanTracer()
        )

    # -- emission -----------------------------------------------------------

    def emit(self, t: float, component: str, kind: str, **data: Any) -> None:
        """Append one trace record (nothing when the bundle is disabled)."""
        if self.enabled:
            self.trace.append(TraceRecord(t, component, kind, data))

    def count(self, name: str, amount: float = 1.0) -> None:
        """Do nothing: every count lives in a record, span or result field.

        Kept because the ``perfbench/`` layer ledger wraps it by name.
        """

    def flush(self) -> None:
        """Do nothing: every record is applied when made.

        Kept because the ``perfbench/`` layer ledger wraps it by name.
        """

    def snapshot(self) -> Dict[str, Any]:
        """Freeze the record list as it stands.

        ``"records"`` is a new list holding the log's own
        :class:`TraceRecord` objects, not copies: records are immutable
        by convention, and a record appended later stays out of it.
        """
        return {
            "format": TELEMETRY_FORMAT,
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

