"""Bounded, preallocated ring-buffer sink for hot-path telemetry.

PERF001–004 flag per-event object construction inside the simulator's
hot closure, and the single biggest telemetry offender was exactly
that: every span end and trace record allocated a
:class:`~repro.simcore.trace.TraceRecord` (and every inline counter
update re-resolved its name through the registry) while the event loop
was running.  The ring buffer replaces all of that with one tuple
store into a preallocated slot; records materialise and metric deltas
apply in a single batch at flush time.

Flushes happen when the ring fills, when the run loop finishes, and —
crucially for determinism — whenever the :class:`TraceLog` is read or
written directly (it drains the attached sink first), so consumers
always observe the exact emission order whether or not a sink is
attached.

The sink meters itself with ``obs_overhead_*`` counters so telemetry
volume is observable in every snapshot; its wall-clock cost is the
``obs.overhead_ratio`` row of the ``perfbench/`` ledger.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.simcore.trace import TraceLog, TraceRecord

__all__ = ["DEFAULT_RING_CAPACITY", "RingBufferSink"]

#: Default slot count; small enough that a drain is cheap, large
#: enough that a smoke run flushes only a handful of times.
DEFAULT_RING_CAPACITY = 1024


class RingBufferSink:
    """Stages trace records and metric deltas, flushing in batches.

    Args:
        trace: Destination log; the sink registers itself via
            :meth:`TraceLog.attach_sink` so direct emits/reads drain it.
        metrics: Registry receiving batched counter deltas.
        capacity: Ring slot count (records staged before auto-flush).
        sampler: Optional :class:`~repro.obs.sampling.TraceSampler`
            consulted at flush time; sampled-out records never reach
            the log.
    """

    __slots__ = (
        "capacity",
        "sampler",
        "_trace",
        "_metrics",
        "_slots",
        "_n",
        "_deltas",
        "_records_total",
        "_flushes_total",
        "_sampled_out_total",
        "_delta_keys_total",
    )

    def __init__(
        self,
        trace: TraceLog,
        metrics: Any,
        capacity: int = DEFAULT_RING_CAPACITY,
        sampler: Optional[Any] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("ring capacity must be >= 1")
        self.capacity = int(capacity)
        self.sampler = sampler
        self._trace = trace
        self._metrics = metrics
        self._slots: list = [None] * self.capacity
        self._n = 0
        self._deltas: Dict[str, float] = {}
        self._records_total = metrics.counter(
            "obs_overhead_records_total",
            "trace records staged through the ring buffer",
        )
        self._flushes_total = metrics.counter(
            "obs_overhead_flushes_total",
            "ring-buffer batch flushes into the trace log/registry",
        )
        self._sampled_out_total = metrics.counter(
            "obs_overhead_sampled_out_total",
            "staged records discarded by the trace sampler at flush",
        )
        self._delta_keys_total = metrics.counter(
            "obs_overhead_metric_deltas_total",
            "distinct counter names applied per batch flush",
        )
        trace.attach_sink(self)

    @property
    def pending(self) -> bool:
        """Whether any staged records or metric deltas await a flush."""
        return self._n > 0 or bool(self._deltas)

    def emit(
        self, t: float, component: str, kind: str, data: Dict[str, Any]
    ) -> None:
        """Stage one trace record (the hot path: one tuple store)."""
        n = self._n
        self._slots[n] = (t, component, kind, data)
        n += 1
        self._n = n
        if n == self.capacity:
            self.flush()

    def count(self, name: str, amount: float = 1.0) -> None:
        """Accumulate a counter delta applied at the next flush."""
        deltas = self._deltas
        deltas[name] = deltas.get(name, 0.0) + amount

    def flush(self) -> int:
        """Materialise staged records and apply deltas; returns appends."""
        staged = self._n
        written = 0
        if staged:
            slots = self._slots
            sampler = self.sampler
            if sampler is None:
                # Bulk materialisation: one list comprehension + one
                # extend beats a per-record append call by ~2x on the
                # flush path the obs-overhead gate meters.
                self._trace.extend([
                    TraceRecord(t, component, kind, data)
                    for t, component, kind, data in slots[:staged]
                ])
                written = staged
            else:
                keep = sampler.keep_record
                kept = [
                    TraceRecord(t, component, kind, data)
                    for t, component, kind, data in slots[:staged]
                    if keep(kind, data)
                ]
                self._trace.extend(kept)
                written = len(kept)
            slots[:staged] = [None] * staged
            self._n = 0
        deltas = self._deltas
        applied = len(deltas)
        if applied:
            counter = self._metrics.counter
            for name in sorted(deltas):
                counter(name).inc(deltas[name])
            deltas.clear()
        if staged or applied:
            self._flushes_total.inc()
            if staged:
                self._records_total.inc(staged)
                if staged != written:
                    self._sampled_out_total.inc(staged - written)
            if applied:
                self._delta_keys_total.inc(applied)
        return written
