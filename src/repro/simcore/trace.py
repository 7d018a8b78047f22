"""Structured simulation tracing.

Components append :class:`TraceRecord` entries to a shared
:class:`TraceLog`.  The experiment harness and the Figure-7 "signals and
selection" reproduction read decisions back out of this log rather than
scraping printed output.
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

    def emit(self, time: float, component: str, kind: str, **data: Any) -> TraceRecord:
        """Append and return a new record."""
        record = TraceRecord(time=time, component=component, kind=kind, data=dict(data))
        self._records.append(record)
        return record

    def append(self, record: TraceRecord) -> None:
        """Append a built record as is (no copy of its payload)."""
        self._records.append(record)

    def select(
        self, component: Optional[str] = None, kind: Optional[str] = None
    ) -> List[TraceRecord]:
        """Return records filtered by component and/or kind."""
        return list(self.iter_filtered(component=component, kind=kind))

    def iter_filtered(
        self,
        component: Optional[str] = None,
        kind: Optional[str] = None,
        t0: Optional[float] = None,
        t1: Optional[float] = None,
    ) -> Iterator[TraceRecord]:
        """Lazily yield records matching every given filter.

        Args:
            component: Keep only this emitting component.
            kind: Keep only this event kind.
            t0: Keep records with ``time >= t0``.
            t1: Keep records with ``time < t1``.
        """
        for rec in self._records:
            if component is not None and rec.component != component:
                continue
            if kind is not None and rec.kind != kind:
                continue
            if t0 is not None and rec.time < t0:
                continue
            if t1 is not None and rec.time >= t1:
                continue
            yield rec

    def by_component(self, component: str) -> Iterator[TraceRecord]:
        """Lazily yield records emitted by ``component``."""
        return self.iter_filtered(component=component)

    def by_kind(self, kind: str, component: Optional[str] = None) -> Iterator[TraceRecord]:
        """Lazily yield records of ``kind`` (optionally one component's)."""
        return self.iter_filtered(component=component, kind=kind)

    def window(self, t0: float, t1: float) -> Iterator[TraceRecord]:
        """Lazily yield records with time in the half-open ``[t0, t1)``."""
        if t1 < t0:
            raise ValueError(f"window end {t1} before start {t0}")
        return self.iter_filtered(t0=t0, t1=t1)

    def components(self) -> List[str]:
        """Distinct emitting components, sorted."""
        return sorted({rec.component for rec in self._records})

    def kinds(self, component: Optional[str] = None) -> List[str]:
        """Distinct kinds (optionally for one component), sorted."""
        return sorted(
            {rec.kind for rec in self.iter_filtered(component=component)}
        )

    def clear(self) -> None:
        """Drop all records."""
        self._records.clear()
