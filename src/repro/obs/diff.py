"""Canonical diff of two telemetry snapshots ("what moved, and why?").

Two same-seed runs produce byte-identical telemetry, so *any*
difference between two snapshots is a real behavioural change — a code
change, a config change, or a different seed.  This module computes a
deterministic, JSON-round-trippable diff document
(``mntp-telemetry-diff-v1``) over two snapshots (bare, shard-enveloped,
merged multi-shard, or full experiment archives):

* counter / gauge deltas and new / removed metric series,
* histogram count, sum and estimated p50/p90/p99 quantile shifts,
* per-span-kind count and duration regressions,
* per-(component, kind) record-count shifts,

and — joined with :mod:`repro.obs.causal` / :mod:`repro.obs.explain` —
ranks the **top suspect components** for an offset or throughput
movement: which named cause (interference, queueing, asymmetry, server
turnaround), outcome class, span kind or counter moved the most,
relative to its baseline magnitude.  ``repro-mntp diff`` prints this
ranking for any two documents.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.obs.explain import CAUSES, explain_run
from repro.obs.merge import SHARD_FORMAT
from repro.obs.spans import SPAN_COMPONENT
from repro.obs.telemetry import TELEMETRY_FORMAT

#: Format tag of the diff document.
DIFF_FORMAT = "mntp-telemetry-diff-v1"

#: Experiment archive format accepted by :func:`coerce_snapshot`.
_EXPERIMENT_FORMAT = "mntp-experiment-v1"

#: Quantiles estimated from cumulative histogram buckets.
_QUANTILES = (0.5, 0.9, 0.99)

#: Relative-change denominator floor (avoids divide-by-zero blowups).
_EPSILON = 1e-9


def coerce_snapshot(
    document: Dict[str, Any],
) -> Tuple[Dict[str, Any], Optional[List[Tuple[float, float, float]]]]:
    """(snapshot, truth samples) from any diffable document.

    Accepts a bare ``mntp-telemetry-v1`` snapshot (including merged
    multi-shard ones — the merge emits the same format), a
    ``mntp-telemetry-shard-v1`` envelope, or a full
    ``mntp-experiment-v1`` archive; the archive also yields its
    truth-bearing SNTP samples so suspect ranking can use the error
    decomposition, not just raw offsets.

    Raises:
        ValueError: If the document is none of those formats, or an
            experiment archive carries no telemetry.
    """
    fmt = document.get("format")
    if fmt == TELEMETRY_FORMAT:
        return document, None
    if fmt == SHARD_FORMAT:
        snapshot = document.get("snapshot", {})
        if snapshot.get("format") != TELEMETRY_FORMAT:
            raise ValueError("shard envelope without a telemetry snapshot")
        return snapshot, None
    if fmt == _EXPERIMENT_FORMAT:
        snapshot = document.get("telemetry")
        if not isinstance(snapshot, dict):
            raise ValueError(
                f"{_EXPERIMENT_FORMAT} archive carries no telemetry snapshot"
            )
        samples = [
            (float(p["t"]), float(p["o"]), float(p["truth"]))
            for p in document.get("sntp", [])
            if "truth" in p
        ]
        return snapshot, samples or None
    raise ValueError(
        f"cannot diff a {fmt!r} document (expected {TELEMETRY_FORMAT}, "
        f"{SHARD_FORMAT} or {_EXPERIMENT_FORMAT})"
    )


def _round(value: float, digits: int = 6) -> float:
    return round(float(value), digits)


# -- metric tables ---------------------------------------------------------


def _metric_table(snapshot: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    return {m["name"]: m for m in snapshot.get("metrics", [])}


def _histogram_quantile(metric: Dict[str, Any], q: float) -> Optional[float]:
    """Upper-bound quantile estimate from cumulative buckets.

    Deterministic and conservative: the estimate is the upper bound of
    the first bucket whose cumulative count reaches the rank (the +Inf
    bucket reports the largest finite bound — a floor, not a value).
    """
    count = int(metric.get("count", 0))
    if count <= 0:
        return None
    bounds = list(metric.get("bounds", []))
    bucket_counts = list(metric.get("bucket_counts", []))
    rank = q * count
    running = 0
    for i, bucket in enumerate(bucket_counts):
        running += bucket
        if running >= rank and running > 0:
            return bounds[i] if i < len(bounds) else bounds[-1]
    return bounds[-1] if bounds else None


def _diff_metrics(
    a: Dict[str, Any], b: Dict[str, Any]
) -> Dict[str, Any]:
    table_a, table_b = _metric_table(a), _metric_table(b)
    counters: List[Dict[str, Any]] = []
    gauges: List[Dict[str, Any]] = []
    histograms: List[Dict[str, Any]] = []
    for name in sorted(set(table_a) & set(table_b)):
        ma, mb = table_a[name], table_b[name]
        kind = ma.get("type")
        if kind != mb.get("type"):
            continue  # series changed type: reported via new/removed below
        if kind in ("counter", "gauge"):
            delta = float(mb.get("value", 0.0)) - float(ma.get("value", 0.0))
            if delta == 0.0:
                continue
            row = {
                "name": name,
                "a": _round(float(ma.get("value", 0.0))),
                "b": _round(float(mb.get("value", 0.0))),
                "delta": _round(delta),
            }
            (counters if kind == "counter" else gauges).append(row)
        elif kind == "histogram":
            count_delta = int(mb.get("count", 0)) - int(ma.get("count", 0))
            sum_delta = float(mb.get("sum", 0.0)) - float(ma.get("sum", 0.0))
            shifts: Dict[str, Any] = {}
            for q in _QUANTILES:
                qa = _histogram_quantile(ma, q)
                qb = _histogram_quantile(mb, q)
                if qa != qb:
                    shifts[f"p{int(q * 100)}"] = {
                        "a": qa,
                        "b": qb,
                    }
            if count_delta == 0 and sum_delta == 0.0 and not shifts:
                continue
            histograms.append(
                {
                    "name": name,
                    "count_delta": count_delta,
                    "sum_delta": _round(sum_delta),
                    "quantile_shifts": shifts,
                }
            )
    return {
        "counters": counters,
        "gauges": gauges,
        "histograms": histograms,
        "new_metrics": sorted(set(table_b) - set(table_a)),
        "removed_metrics": sorted(set(table_a) - set(table_b)),
    }


# -- record / span tables --------------------------------------------------


def _span_table(snapshot: Dict[str, Any]) -> Dict[str, Dict[str, float]]:
    """span kind -> {count, total_dur_s, max_dur_s}."""
    table: Dict[str, Dict[str, float]] = {}
    for record in snapshot.get("records", []):
        if record.get("component") != SPAN_COMPONENT:
            continue
        kind = str(record.get("kind"))
        data = record.get("data", {})
        dur = float(data.get("dur", 0.0))
        row = table.setdefault(
            kind, {"count": 0.0, "total_dur_s": 0.0, "max_dur_s": 0.0}
        )
        row["count"] += 1
        row["total_dur_s"] += dur
        if dur > row["max_dur_s"]:
            row["max_dur_s"] = dur
    return table


def _record_table(snapshot: Dict[str, Any]) -> Dict[str, int]:
    """"component/kind" -> record count (spans excluded; counted above)."""
    table: Dict[str, int] = {}
    for record in snapshot.get("records", []):
        if record.get("component") == SPAN_COMPONENT:
            continue
        key = f"{record.get('component')}/{record.get('kind')}"
        table[key] = table.get(key, 0) + 1
    return table


def _diff_spans(a: Dict[str, Any], b: Dict[str, Any]) -> Dict[str, Any]:
    table_a, table_b = _span_table(a), _span_table(b)
    rows: List[Dict[str, Any]] = []
    for kind in sorted(set(table_a) & set(table_b)):
        ra, rb = table_a[kind], table_b[kind]
        count_delta = int(rb["count"] - ra["count"])
        total_delta = rb["total_dur_s"] - ra["total_dur_s"]
        max_delta = rb["max_dur_s"] - ra["max_dur_s"]
        if count_delta == 0 and total_delta == 0.0 and max_delta == 0.0:
            continue
        rows.append(
            {
                "kind": kind,
                "count_delta": count_delta,
                "total_dur_delta_s": _round(total_delta),
                "max_dur_delta_s": _round(max_delta),
            }
        )
    return {
        "spans": rows,
        "new_span_kinds": sorted(set(table_b) - set(table_a)),
        "removed_span_kinds": sorted(set(table_a) - set(table_b)),
    }


def _diff_records(a: Dict[str, Any], b: Dict[str, Any]) -> Dict[str, Any]:
    table_a, table_b = _record_table(a), _record_table(b)
    rows: List[Dict[str, Any]] = []
    for key in sorted(set(table_a) & set(table_b)):
        delta = table_b[key] - table_a[key]
        if delta == 0:
            continue
        rows.append(
            {"series": key, "a": table_a[key], "b": table_b[key], "delta": delta}
        )
    return {
        "records": rows,
        "new_record_kinds": sorted(set(table_b) - set(table_a)),
        "removed_record_kinds": sorted(set(table_a) - set(table_b)),
    }


# -- suspect ranking -------------------------------------------------------


def _cause_profile(
    snapshot: Dict[str, Any],
    samples: Optional[Iterable[Any]],
) -> Tuple[Dict[str, float], Dict[str, int]]:
    """(mean |cause| in ms per named cause, outcome counts) for one run."""
    report = explain_run(snapshot, samples=samples)
    sums: Dict[str, float] = {cause: 0.0 for cause in CAUSES}
    counts: Dict[str, int] = {cause: 0 for cause in CAUSES}
    for d in report.decompositions:
        for cause, value in d.components().items():
            sums[cause] += abs(value)
            counts[cause] += 1
    means = {
        cause: (sums[cause] / counts[cause] * 1e3 if counts[cause] else 0.0)
        for cause in CAUSES
    }
    return means, dict(report.outcomes)


def _relative(delta: float, baseline: float) -> float:
    return abs(delta) / max(abs(baseline), _EPSILON)


def rank_suspects(
    a: Dict[str, Any],
    b: Dict[str, Any],
    samples_a: Optional[Iterable[Any]] = None,
    samples_b: Optional[Iterable[Any]] = None,
) -> List[Dict[str, Any]]:
    """Rank what most plausibly drove the movement from ``a`` to ``b``.

    Four deterministic evidence channels, scored by *relative* change
    against the baseline so a 2× queueing jump outranks a 0.1% counter
    drift regardless of absolute units:

    * ``cause`` — mean |component| shift per named error cause (the
      causal decomposition of :mod:`repro.obs.explain`);
    * ``outcome`` — exchange outcome mix shifts (ok / timeout / kod...);
    * ``span`` — per-span-kind total-duration shifts;
    * ``counter`` — raw counter shifts.

    Ties break by (kind, component) so the ranking is reproducible.
    """
    suspects: List[Dict[str, Any]] = []

    causes_a, outcomes_a = _cause_profile(a, samples_a)
    causes_b, outcomes_b = _cause_profile(b, samples_b)
    for cause in CAUSES:
        va, vb = causes_a.get(cause, 0.0), causes_b.get(cause, 0.0)
        delta = vb - va
        if delta == 0.0:
            continue
        suspects.append(
            {
                "kind": "cause",
                "component": cause,
                "a": _round(va),
                "b": _round(vb),
                "delta": _round(delta),
                "unit": "ms",
                "score": _round(_relative(delta, va)),
            }
        )
    for outcome in sorted(set(outcomes_a) | set(outcomes_b)):
        va, vb = outcomes_a.get(outcome, 0), outcomes_b.get(outcome, 0)
        delta = vb - va
        if delta == 0:
            continue
        suspects.append(
            {
                "kind": "outcome",
                "component": outcome,
                "a": va,
                "b": vb,
                "delta": delta,
                "unit": "exchanges",
                "score": _round(_relative(delta, va)),
            }
        )
    spans_a, spans_b = _span_table(a), _span_table(b)
    for kind in sorted(set(spans_a) | set(spans_b)):
        va = spans_a.get(kind, {}).get("total_dur_s", 0.0)
        vb = spans_b.get(kind, {}).get("total_dur_s", 0.0)
        delta = vb - va
        if delta == 0.0:
            continue
        suspects.append(
            {
                "kind": "span",
                "component": kind,
                "a": _round(va),
                "b": _round(vb),
                "delta": _round(delta),
                "unit": "s",
                "score": _round(_relative(delta, va)),
            }
        )
    table_a, table_b = _metric_table(a), _metric_table(b)
    for name in sorted(set(table_a) | set(table_b)):
        ma = table_a.get(name, {})
        mb = table_b.get(name, {})
        if (ma.get("type") or mb.get("type")) != "counter":
            continue
        va = float(ma.get("value", 0.0))
        vb = float(mb.get("value", 0.0))
        delta = vb - va
        if delta == 0.0:
            continue
        suspects.append(
            {
                "kind": "counter",
                "component": name,
                "a": _round(va),
                "b": _round(vb),
                "delta": _round(delta),
                "unit": "count",
                "score": _round(_relative(delta, va)),
            }
        )
    suspects.sort(key=lambda s: (-s["score"], s["kind"], s["component"]))
    return suspects


# -- whole diff ------------------------------------------------------------


def diff_snapshots(
    a: Dict[str, Any],
    b: Dict[str, Any],
    samples_a: Optional[Iterable[Any]] = None,
    samples_b: Optional[Iterable[Any]] = None,
) -> Dict[str, Any]:
    """Full canonical diff document (``mntp-telemetry-diff-v1``).

    ``identical`` is True exactly when every section is empty — two
    same-seed runs of the same code diff to nothing.
    """
    out: Dict[str, Any] = {"format": DIFF_FORMAT}
    out.update(_diff_metrics(a, b))
    out.update(_diff_spans(a, b))
    out.update(_diff_records(a, b))
    out["suspects"] = rank_suspects(
        a, b, samples_a=samples_a, samples_b=samples_b
    )
    out["identical"] = not any(
        out[key]
        for key in (
            "counters", "gauges", "histograms",
            "new_metrics", "removed_metrics",
            "spans", "new_span_kinds", "removed_span_kinds",
            "records", "new_record_kinds", "removed_record_kinds",
            "suspects",
        )
    )
    return out


def render_diff_text(diff: Dict[str, Any], top: int = 5) -> str:
    """Human-readable diff (the CLI prints this verbatim)."""
    if diff.get("identical"):
        return "snapshots are identical (no telemetry differences)"
    lines: List[str] = []
    suspects = diff.get("suspects", [])
    if suspects:
        shown = suspects[: max(0, top)]
        lines.append(f"top {len(shown)} suspects (of {len(suspects)}):")
        for rank, s in enumerate(shown, 1):
            lines.append(
                f"  {rank}. [{s['kind']}] {s['component']}: "
                f"{s['a']} -> {s['b']} {s['unit']} "
                f"(delta {s['delta']:+}, score {s['score']})"
            )
    for key, label in (
        ("counters", "counter deltas"),
        ("gauges", "gauge deltas"),
    ):
        rows = diff.get(key, [])
        if rows:
            lines.append(f"{label}: " + " ".join(
                f"{r['name']}{r['delta']:+g}" for r in rows
            ))
    for row in diff.get("histograms", []):
        shifts = " ".join(
            f"{q}:{v['a']}->{v['b']}"
            for q, v in sorted(row["quantile_shifts"].items())
        )
        lines.append(
            f"histogram {row['name']}: count{row['count_delta']:+d} "
            f"sum{row['sum_delta']:+g}" + (f" [{shifts}]" if shifts else "")
        )
    for row in diff.get("spans", []):
        lines.append(
            f"span {row['kind']}: count{row['count_delta']:+d} "
            f"total_dur{row['total_dur_delta_s']:+g}s "
            f"max_dur{row['max_dur_delta_s']:+g}s"
        )
    for row in diff.get("records", []):
        lines.append(
            f"records {row['series']}: {row['a']} -> {row['b']} "
            f"({row['delta']:+d})"
        )
    for key, label in (
        ("new_metrics", "new metrics"),
        ("removed_metrics", "removed metrics"),
        ("new_span_kinds", "new span kinds"),
        ("removed_span_kinds", "removed span kinds"),
        ("new_record_kinds", "new record series"),
        ("removed_record_kinds", "removed record series"),
    ):
        names = diff.get(key, [])
        if names:
            lines.append(f"{label}: " + " ".join(names))
    return "\n".join(lines)
