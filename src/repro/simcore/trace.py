"""Structured simulation tracing.

Components append :class:`TraceRecord` entries to a shared
:class:`TraceLog`.  The experiment harness and the Figure-7 "signals and
selection" reproduction read decisions back out of this log rather than
scraping printed output.

A :class:`TraceRecord` is the only in-memory form of a record: live
logs, telemetry snapshots and loaded archives all hold them.  The dict
form ``{"t", "component", "kind", "data"}`` exists only at the JSON
boundary, through :meth:`TraceRecord.to_dict` and
:meth:`TraceRecord.from_dict`.  A finished span
(:class:`repro.obs.spans.Span`) is its own record: a subclass that
keeps its payload as a tuple and builds its ``data`` dict on first read.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional


class TraceRecord:
    """One structured trace entry.

    A plain ``__slots__`` class rather than a dataclass: a run appends
    thousands of records, and the frozen-dataclass ``__init__`` (one
    ``object.__setattr__`` per field) costs ~4x a direct slot store
    on that path.  Records are treated as immutable by convention.

    Attributes:
        time: Virtual time of the event.
        component: Emitting component name (e.g. ``"mntp"``, ``"channel"``).
        kind: Event kind within the component (e.g. ``"offset_accepted"``).
        data: Arbitrary payload fields.
    """

    __slots__ = ("time", "component", "kind", "data")

    def __init__(
        self,
        time: float,
        component: str,
        kind: str,
        data: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.time = time
        self.component = component
        self.kind = kind
        self.data = {} if data is None else data

    def to_dict(self) -> Dict[str, Any]:
        """The JSON form, keys in the fixed order ``t, component, kind, data``.

        The payload dict is shared, not copied.
        """
        return {
            "t": self.time,
            "component": self.component,
            "kind": self.kind,
            "data": self.data,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "TraceRecord":
        """Rebuild a record from its :meth:`to_dict` form.

        Values are kept as stored, so a loaded record re-serialises to
        the same bytes.
        """
        return cls(d["t"], d["component"], d["kind"], d.get("data"))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceRecord):
            return NotImplemented
        return (
            self.time == other.time
            and self.component == other.component
            and self.kind == other.kind
            and self.data == other.data
        )

    def __repr__(self) -> str:
        return (
            f"TraceRecord(time={self.time!r}, "
            f"component={self.component!r}, kind={self.kind!r}, "
            f"data={self.data!r})"
        )


class TraceLog:
    """Append-only in-memory log of :class:`TraceRecord` entries.

    Every emitter appends here directly, so the record sequence is
    exactly the emission order.
    """

    def __init__(self) -> None:
        self._records: List[TraceRecord] = []

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    def append(self, record: TraceRecord) -> None:
        """Append a built record as is (no copy of its payload)."""
        self._records.append(record)

    def select(
        self,
        component: Optional[str] = None,
        kind: Optional[str] = None,
        t0: Optional[float] = None,
        t1: Optional[float] = None,
    ) -> List[TraceRecord]:
        """Return the records matching every given filter, in log order.

        Args:
            component: Keep only this emitting component.
            kind: Keep only this event kind.
            t0: Keep records with ``time >= t0``.
            t1: Keep records with ``time < t1``; with ``t0``, the
                window ``[t0, t1)`` must not end before it starts.
        """
        if t0 is not None and t1 is not None and t1 < t0:
            raise ValueError(f"window end {t1} before start {t0}")
        return [
            rec for rec in self._records
            if (component is None or rec.component == component)
            and (kind is None or rec.kind == kind)
            and (t0 is None or not rec.time < t0)
            and (t1 is None or not rec.time >= t1)
        ]

    def clear(self) -> None:
        """Drop all records."""
        self._records.clear()
