"""Deterministic metrics primitives: counter, gauge, histogram.

Metrics carry *no* timestamps of their own — they are pure accumulators
fed by simulation components, so a registry snapshot is a deterministic
function of the run's seed.  Wall-clock cost is measured from outside
the simulation by ``perfbench/``.

Names follow the Prometheus convention (``mntp_offset_accepted_total``,
``mntp_abs_residual_ms``); :func:`repro.obs.exporters.render_prometheus`
renders a snapshot in the text exposition format.
"""

from __future__ import annotations

import re
from typing import Any, Dict, List, Optional, Sequence, Union

#: Legal metric names (the Prometheus identifier grammar).
_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")

#: Default histogram bucket upper bounds; callers with a known value
#: range (e.g. millisecond residuals) should pass their own.
DEFAULT_BUCKETS = (0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0)


class Metric:
    """Base class: a named, typed accumulator inside a registry."""

    #: Type tag used in snapshots and the Prometheus exposition.
    metric_type = "untyped"

    def __init__(self, name: str, help: str = "") -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help

    def snapshot(self) -> Dict[str, Any]:
        """JSON-serialisable state of this metric."""
        raise NotImplementedError


class Counter(Metric):
    """Monotonically increasing count (``*_total`` by convention)."""

    metric_type = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (got {amount})")
        self.value += amount

    def snapshot(self) -> Dict[str, Any]:
        """Name, type, help, and current value."""
        return {
            "name": self.name,
            "type": self.metric_type,
            "help": self.help,
            "value": self.value,
        }


class Gauge(Metric):
    """A value that can go up and down (last-write-wins)."""

    metric_type = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self.value = 0.0
        self.updates = 0

    def set(self, value: float) -> None:
        """Replace the gauge value."""
        self.value = float(value)
        self.updates += 1

    def add(self, amount: float) -> None:
        """Adjust the gauge by ``amount`` (either sign)."""
        self.value += amount
        self.updates += 1

    def snapshot(self) -> Dict[str, Any]:
        """Name, type, help, value, and update count."""
        return {
            "name": self.name,
            "type": self.metric_type,
            "help": self.help,
            "value": self.value,
            "updates": self.updates,
        }


class Histogram(Metric):
    """Cumulative-bucket histogram (Prometheus semantics).

    ``buckets`` are upper bounds; an implicit ``+Inf`` bucket catches
    everything else.  ``observe`` is O(len(buckets)).
    """

    metric_type = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help)
        bounds = sorted(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.bounds: List[float] = bounds
        self.bucket_counts: List[int] = [0] * (len(bounds) + 1)  # + the +Inf bucket
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.sum += value
        self.count += 1
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[i] += 1
                return
        self.bucket_counts[-1] += 1

    def cumulative_counts(self) -> List[int]:
        """Bucket counts accumulated in bound order (Prometheus ``le``)."""
        out: List[int] = []
        running = 0
        for count in self.bucket_counts:
            running += count
            out.append(running)
        return out

    def snapshot(self) -> Dict[str, Any]:
        """Name, type, help, bounds, per-bucket counts, sum, count."""
        return {
            "name": self.name,
            "type": self.metric_type,
            "help": self.help,
            "bounds": list(self.bounds),
            "bucket_counts": list(self.bucket_counts),
            "sum": self.sum,
            "count": self.count,
        }


class MetricsRegistry:
    """Get-or-create home for every metric of one run.

    Components call :meth:`counter` / :meth:`gauge` / :meth:`histogram`
    at use sites; re-requesting an existing name returns the same
    object, and requesting it as a different type is an error (two
    components silently sharing a name is a telemetry bug).
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def _get_or_create(self, cls, name: str, **kwargs) -> Metric:
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{existing.metric_type}, not {cls.metric_type}"
                )
            return existing
        metric = cls(name, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        """Get or create a :class:`Counter`."""
        return self._get_or_create(Counter, name, help=help)  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Get or create a :class:`Gauge`."""
        return self._get_or_create(Gauge, name, help=help)  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        """Get or create a :class:`Histogram`."""
        return self._get_or_create(Histogram, name, help=help, buckets=buckets)  # type: ignore[return-value]

    def get(self, name: str) -> Optional[Metric]:
        """The metric registered under ``name``, or None."""
        return self._metrics.get(name)

    def value(self, name: str, default: float = 0.0) -> float:
        """Scalar value of a counter/gauge (``default`` if absent)."""
        metric = self._metrics.get(name)
        value = getattr(metric, "value", None)
        return default if value is None else float(value)

    def names(self) -> List[str]:
        """Registered metric names, sorted."""
        return sorted(self._metrics)

    def snapshot(self) -> List[Dict[str, Any]]:
        """Every metric's snapshot, sorted by name (deterministic)."""
        return [self._metrics[name].snapshot() for name in sorted(self._metrics)]


#: Union of the concrete metric classes (typing convenience).
AnyMetric = Union[Counter, Gauge, Histogram]
