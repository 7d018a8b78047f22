"""Root-cause attribution for offset errors ("why did this sample spike?").

Built on :mod:`repro.obs.causal`: for every completed ``ok`` exchange
the four-timestamp algebra says the measurement error decomposes as ::

    error  =  offset + truth
           =  server_term + (owd_fwd - owd_rev) / 2

where the one-way-delay difference splits, hop component by hop
component, into

* **asymmetry** — the propagation-floor difference of the two paths,
* **queueing** — queueing/contention/bufferbloat delay difference,
* **interference** — 802.11 retry backoff difference (the channel), and
* **server_turnaround** — the residual once the three wire terms are
  subtracted: the server-side contribution (its own clock error plus
  timestamping effects around the turnaround).  Computable only when
  ground truth for the sample is known.

The per-exchange decompositions aggregate into fixed windows for a
time-series view, and the report renders as text or canonical JSON —
both byte-identical for same-seed runs, like everything in
:mod:`repro.obs`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.obs.causal import Exchange, assemble_exchanges, completeness

#: Report format tag (embedded in archived runs).
EXPLAIN_FORMAT = "mntp-explain-v1"

#: The named causes, in deterministic tie-break order.
CAUSES = ("interference", "queueing", "asymmetry", "server_turnaround")


@dataclass
class Decomposition:
    """One ``ok`` exchange's offset error split into named causes.

    All components are signed seconds; a positive component pushed the
    reported offset upward.  ``server_turnaround`` (the residual) and
    ``error`` require ground truth and are None without it.
    """

    trace_id: str
    time: float
    client: str
    server: Optional[str]
    offset: float
    error: Optional[float]
    asymmetry: float
    queueing: float
    interference: float
    server_turnaround: Optional[float]
    turnaround_s: Optional[float]
    episodes: int

    def components(self) -> Dict[str, float]:
        """The named, signed components (seconds)."""
        out = {
            "interference": self.interference,
            "queueing": self.queueing,
            "asymmetry": self.asymmetry,
        }
        if self.server_turnaround is not None:
            out["server_turnaround"] = self.server_turnaround
        return out

    @property
    def dominant_cause(self) -> str:
        """The component with the largest magnitude (ties: CAUSES order)."""
        comps = self.components()
        best = "interference"
        best_mag = -1.0
        for cause in CAUSES:
            if cause not in comps:
                continue
            mag = abs(comps[cause])
            if mag > best_mag:
                best, best_mag = cause, mag
        return best

    @property
    def magnitude(self) -> float:
        """|error| when truth was available, else |offset|."""
        return abs(self.error) if self.error is not None else abs(self.offset)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (values in milliseconds)."""
        out: Dict[str, Any] = {
            "trace_id": self.trace_id,
            "time": self.time,
            "client": self.client,
            "server": self.server,
            "offset_ms": self.offset * 1e3,
            "error_ms": None if self.error is None else self.error * 1e3,
            "asymmetry_ms": self.asymmetry * 1e3,
            "queueing_ms": self.queueing * 1e3,
            "interference_ms": self.interference * 1e3,
            "server_turnaround_ms": (
                None if self.server_turnaround is None
                else self.server_turnaround * 1e3
            ),
            "episodes": self.episodes,
            "dominant_cause": self.dominant_cause,
        }
        return out


@dataclass
class WindowAgg:
    """Fixed-window aggregation of the decomposition time series."""

    index: int
    t0: float
    t1: float
    count: int
    mean_abs_error_ms: Optional[float]
    mean_asymmetry_ms: float
    mean_queueing_ms: float
    mean_interference_ms: float
    mean_server_ms: Optional[float]
    episodes: int

    @property
    def dominant_cause(self) -> str:
        """Largest mean-magnitude component over the window."""
        comps = {
            "interference": self.mean_interference_ms,
            "queueing": self.mean_queueing_ms,
            "asymmetry": self.mean_asymmetry_ms,
        }
        if self.mean_server_ms is not None:
            comps["server_turnaround"] = self.mean_server_ms
        best = "interference"
        best_mag = -1.0
        for cause in CAUSES:
            if cause not in comps:
                continue
            mag = abs(comps[cause])
            if mag > best_mag:
                best, best_mag = cause, mag
        return best

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation."""
        return {
            "t0": self.t0,
            "t1": self.t1,
            "count": self.count,
            "mean_abs_error_ms": self.mean_abs_error_ms,
            "mean_asymmetry_ms": self.mean_asymmetry_ms,
            "mean_queueing_ms": self.mean_queueing_ms,
            "mean_interference_ms": self.mean_interference_ms,
            "mean_server_turnaround_ms": self.mean_server_ms,
            "episodes": self.episodes,
            "dominant_cause": self.dominant_cause,
        }


@dataclass
class ExplainReport:
    """Full root-cause report for one run."""

    exchanges_total: int
    exchanges_complete: int
    coverage: float
    outcomes: Dict[str, int]
    decompositions: List[Decomposition]
    p90_abs_error: Optional[float]
    window_s: float
    windows: List[WindowAgg] = field(default_factory=list)

    def worst(self, n: int) -> List[Decomposition]:
        """The ``n`` largest-magnitude decompositions."""
        ranked = sorted(
            self.decompositions, key=lambda d: (-d.magnitude, d.trace_id)
        )
        return ranked[: max(0, n)]

    def above_p90(self) -> List[Decomposition]:
        """Decompositions whose |error| exceeds the run's p90."""
        if self.p90_abs_error is None:
            return []
        return [
            d for d in self.decompositions
            if d.error is not None and abs(d.error) > self.p90_abs_error
        ]

    def to_dict(self, worst_n: int = 10) -> Dict[str, Any]:
        """Canonical JSON-ready report (deterministic per snapshot)."""
        return {
            "format": EXPLAIN_FORMAT,
            "exchanges_total": self.exchanges_total,
            "exchanges_complete": self.exchanges_complete,
            "coverage": self.coverage,
            "outcomes": dict(sorted(self.outcomes.items())),
            "decomposed": len(self.decompositions),
            "p90_abs_error_ms": (
                None if self.p90_abs_error is None else self.p90_abs_error * 1e3
            ),
            "window_s": self.window_s,
            "worst": [d.to_dict() for d in self.worst(worst_n)],
            "windows": [w.to_dict() for w in self.windows],
        }

    def render_text(self, worst_n: int = 5) -> str:
        """Human-readable report (the CLI prints this verbatim)."""
        lines = [
            f"exchanges: {self.exchanges_total} total, "
            f"{self.exchanges_complete} complete causal trees "
            f"({self.coverage * 100:.1f}% coverage)",
            "outcomes: " + " ".join(
                f"{k}={v}" for k, v in sorted(self.outcomes.items())
            ),
        ]
        if self.p90_abs_error is not None:
            with_truth = sum(
                1 for d in self.decompositions if d.error is not None
            )
            lines.append(
                f"p90 |error|: {self.p90_abs_error * 1e3:.2f} ms over "
                f"{with_truth} truth-joined samples "
                f"({len(self.decompositions)} decomposed)"
            )
        lines.append("")
        lines.append(f"worst {min(worst_n, len(self.decompositions))} samples:")
        for d in self.worst(worst_n):
            err = "n/a" if d.error is None else f"{d.error * 1e3:+8.2f}"
            lines.append(
                f"  t={d.time:9.2f}  {d.trace_id:<14} err(ms)={err:>8}  "
                f"intf={d.interference * 1e3:+7.2f} "
                f"queue={d.queueing * 1e3:+7.2f} "
                f"asym={d.asymmetry * 1e3:+7.2f}  "
                f"cause={d.dominant_cause}"
            )
        if self.windows:
            lines.append("")
            lines.append(
                f"windows ({self.window_s:.0f} s): "
                "t0, n, mean|err|, intf, queue, asym, cause"
            )
            for w in self.windows:
                err = (
                    "    n/a" if w.mean_abs_error_ms is None
                    else f"{w.mean_abs_error_ms:7.2f}"
                )
                lines.append(
                    f"  {w.t0:9.0f}  {w.count:4d}  {err}  "
                    f"{w.mean_interference_ms:+7.2f} "
                    f"{w.mean_queueing_ms:+7.2f} "
                    f"{w.mean_asymmetry_ms:+7.2f}  {w.dominant_cause}"
                )
        return "\n".join(lines)


def _truth_map(
    samples: Optional[Iterable[Any]],
) -> Dict[Tuple[float, float], float]:
    """(time, offset) -> truth for samples carrying ground truth.

    ``samples`` may hold ``OffsetPoint``-like objects (``.time``,
    ``.offset``, ``.truth``) or ``(time, offset, truth)`` tuples.  The
    join key is exact: the client records the sample in the same event
    (same virtual instant, same float) that ends the exchange span.
    """
    table: Dict[Tuple[float, float], float] = {}
    if samples is None:
        return table
    for sample in samples:
        if hasattr(sample, "time"):
            time, offset, truth = sample.time, sample.offset, sample.truth
        else:
            time, offset, truth = sample
        if truth == truth:  # skip NaN
            table[(float(time), float(offset))] = float(truth)
    return table


def decompose(
    exchange: Exchange,
    truth: Optional[float] = None,
) -> Optional[Decomposition]:
    """Split one ``ok`` exchange's error into causes; None if impossible."""
    if exchange.outcome != "ok" or exchange.offset is None:
        return None
    req, rsp = exchange.request_hop, exchange.response_hop
    if req is None or rsp is None:
        return None
    asymmetry = (req.prop_s - rsp.prop_s) / 2.0
    queueing = (req.queue_s - rsp.queue_s) / 2.0
    interference = (req.intf_s - rsp.intf_s) / 2.0
    error: Optional[float] = None
    server_term: Optional[float] = None
    if truth is not None:
        error = exchange.offset + truth
        server_term = error - (asymmetry + queueing + interference)
    return Decomposition(
        trace_id=exchange.trace_id,
        time=exchange.t1,
        client=exchange.client,
        server=exchange.server,
        offset=float(exchange.offset),
        error=error,
        asymmetry=asymmetry,
        queueing=queueing,
        interference=interference,
        server_turnaround=server_term,
        turnaround_s=(
            exchange.turnaround.dur if exchange.turnaround is not None else None
        ),
        episodes=len(exchange.interference),
    )


def _p90(values: List[float]) -> Optional[float]:
    """The empirical 90th percentile (nearest-rank), None if empty."""
    if not values:
        return None
    ranked = sorted(values)
    index = min(len(ranked) - 1, max(0, int(0.9 * len(ranked) + 0.5) - 1))
    return ranked[index]


def _windows(
    decompositions: List[Decomposition], window_s: float
) -> List[WindowAgg]:
    buckets: Dict[int, List[Decomposition]] = {}
    for d in decompositions:
        buckets.setdefault(int(d.time // window_s), []).append(d)
    out: List[WindowAgg] = []
    for index in sorted(buckets):
        group = buckets[index]
        errors = [abs(d.error) for d in group if d.error is not None]
        servers = [
            d.server_turnaround for d in group if d.server_turnaround is not None
        ]
        out.append(
            WindowAgg(
                index=index,
                t0=index * window_s,
                t1=(index + 1) * window_s,
                count=len(group),
                mean_abs_error_ms=(
                    sum(errors) / len(errors) * 1e3 if errors else None
                ),
                mean_asymmetry_ms=(
                    sum(d.asymmetry for d in group) / len(group) * 1e3
                ),
                mean_queueing_ms=(
                    sum(d.queueing for d in group) / len(group) * 1e3
                ),
                mean_interference_ms=(
                    sum(d.interference for d in group) / len(group) * 1e3
                ),
                mean_server_ms=(
                    sum(servers) / len(servers) * 1e3 if servers else None
                ),
                episodes=sum(d.episodes for d in group),
            )
        )
    return out


def explain_run(
    snapshot: Dict[str, Any],
    samples: Optional[Iterable[Any]] = None,
    window_s: float = 300.0,
) -> ExplainReport:
    """Assemble, decompose and aggregate one run's telemetry snapshot.

    Args:
        snapshot: A :meth:`repro.obs.telemetry.Telemetry.snapshot` dict (live or
            loaded from an archive).
        samples: Optional offset observations with ground truth —
            ``OffsetPoint``-like objects or ``(time, offset, truth)``
            tuples — joined to exchanges by exact (time, offset).
        window_s: Aggregation window for the time-series view.

    Raises:
        ValueError: If ``window_s`` is not a positive finite number.
    """
    if not (math.isfinite(window_s) and window_s > 0):
        raise ValueError("window must be a positive finite number")
    exchanges = assemble_exchanges(snapshot)
    truths = _truth_map(samples)
    outcomes: Dict[str, int] = {}
    decompositions: List[Decomposition] = []
    for exchange in exchanges:
        outcomes[exchange.outcome] = outcomes.get(exchange.outcome, 0) + 1
        truth = (
            truths.get((exchange.t1, exchange.offset))
            if exchange.offset is not None
            else None
        )
        d = decompose(exchange, truth)
        if d is not None:
            decompositions.append(d)
    return ExplainReport(
        exchanges_total=len(exchanges),
        exchanges_complete=sum(1 for e in exchanges if e.complete),
        coverage=completeness(exchanges),
        outcomes=outcomes,
        decompositions=decompositions,
        p90_abs_error=_p90(
            [abs(d.error) for d in decompositions if d.error is not None]
        ),
        window_s=window_s,
        windows=_windows(decompositions, window_s),
    )


def render_tree(exchange: Exchange, decomposition: Optional[Decomposition] = None) -> str:
    """One exchange's causal tree as indented text (for ``--trace-id``)."""
    offset = (
        "" if exchange.offset is None
        else f" offset={exchange.offset * 1e3:+.2f}ms"
    )
    lines = [
        f"sntp.exchange {exchange.trace_id} client={exchange.client} "
        f"server={exchange.server or '?'} outcome={exchange.outcome}{offset} "
        f"t=[{exchange.t0:.3f}, {exchange.t1:.3f}] dur={exchange.dur * 1e3:.2f}ms"
    ]

    def hop_line(label: str, hop) -> str:
        return (
            f"|- link.transit {label} {hop.link} dur={hop.dur * 1e3:.2f}ms "
            f"(prop={hop.prop_s * 1e3:.2f} queue={hop.queue_s * 1e3:.2f} "
            f"intf={hop.intf_s * 1e3:.2f})"
        )

    if exchange.request_hop is not None:
        lines.append(hop_line("request", exchange.request_hop))
    if exchange.turnaround is not None:
        t = exchange.turnaround
        lines.append(
            f"|- server.turnaround {t.server} dur={t.dur * 1e3:.2f}ms "
            f"outcome={t.outcome or '?'}"
        )
    if exchange.response_hop is not None:
        lines.append(hop_line("response", exchange.response_hop))
    for drop in exchange.drops:
        lines.append(
            f"|- {drop['kind']} on {drop['component']} t={drop['t']:.3f} "
            f"ident={drop['ident']}"
        )
    for ep in exchange.interference:
        lines.append(
            f"|- channel.interference [{ep.t0:.3f}, {ep.t1:.3f}] "
            f"rssi_dip={ep.rssi_dip_db:.1f}dB noise_lift={ep.noise_lift_db:.1f}dB"
        )
    for fault in exchange.faults:
        lines.append(
            f"|- fault.episode {fault.fault} target={fault.target} "
            f"direction={fault.direction} [{fault.t0:.3f}, {fault.t1:.3f}]"
        )
    if decomposition is not None:
        lines.append(
            f"`- decomposition: err="
            + (
                "n/a" if decomposition.error is None
                else f"{decomposition.error * 1e3:+.2f}ms"
            )
            + f" intf={decomposition.interference * 1e3:+.2f}ms"
            f" queue={decomposition.queueing * 1e3:+.2f}ms"
            f" asym={decomposition.asymmetry * 1e3:+.2f}ms"
            + (
                ""
                if decomposition.server_turnaround is None
                else f" server={decomposition.server_turnaround * 1e3:+.2f}ms"
            )
            + f" -> {decomposition.dominant_cause}"
        )
    return "\n".join(lines)
