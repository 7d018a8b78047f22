"""Telemetry snapshot exporters: JSONL, Chrome trace-event, Prometheus.

All three render the snapshot produced by
:meth:`repro.obs.telemetry.Telemetry.snapshot`, whose records are
:class:`~repro.simcore.trace.TraceRecord` objects; the JSONL writer
and :func:`load_jsonl` are where a record becomes a dict and back:

* **JSONL** — one self-describing JSON object per line (``meta``,
  ``metric``, ``record``); the archival format ``--telemetry`` writes.
  Key order and float formatting are fixed, so identical runs produce
  byte-identical files.
* **Chrome trace-event** — a JSON document loadable in
  ``chrome://tracing`` / Perfetto; spans become complete (``"X"``)
  events on a per-component track, other records become instants.
* **Prometheus text exposition** — counters/gauges/histograms in the
  scrape format, for eyeballing and for diffing metric sets across
  code versions.
"""

from __future__ import annotations

import json
from typing import IO, Any, Dict, Iterator, List

from repro.obs.spans import SPAN_COMPONENT
from repro.obs.telemetry import TELEMETRY_FORMAT
from repro.simcore.trace import TraceRecord


def _dumps(obj: Any) -> str:
    """Canonical JSON encoding (sorted keys, fixed separators)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# -- JSONL ---------------------------------------------------------------


def jsonl_lines(snapshot: Dict[str, Any]) -> Iterator[str]:
    """The JSONL export, line by line (without trailing newlines)."""
    metrics = snapshot.get("metrics", [])
    records = snapshot.get("records", [])
    yield _dumps(
        {
            "type": "meta",
            "format": snapshot.get("format", TELEMETRY_FORMAT),
            "metric_count": len(metrics),
            "record_count": len(records),
        }
    )
    for metric in metrics:
        # Nested: the metric's own "type" (counter/gauge/...) must not
        # collide with the line discriminator.
        yield _dumps({"type": "metric", "metric": metric})
    for record in records:
        yield _dumps({"type": "record", **record.to_dict()})


def write_jsonl(snapshot: Dict[str, Any], fileobj: IO[str]) -> int:
    """Write the JSONL export; returns the number of lines written."""
    n = 0
    for line in jsonl_lines(snapshot):
        fileobj.write(line + "\n")
        n += 1
    return n


def load_jsonl(fileobj: IO[str]) -> Dict[str, Any]:
    """Rebuild a snapshot dict from a JSONL export.

    Records come back as :class:`TraceRecord` objects, as in a live
    snapshot.

    Raises:
        ValueError: If the stream is not a telemetry JSONL document.
    """
    meta: Dict[str, Any] = {}
    metrics: List[Dict[str, Any]] = []
    records: List[TraceRecord] = []
    for lineno, line in enumerate(fileobj, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"line {lineno}: not JSON ({exc})") from exc
        kind = obj.get("type") if isinstance(obj, dict) else None
        if kind == "meta":
            meta = obj
        elif kind == "metric":
            metrics.append(dict(obj.get("metric", {})))
        elif kind == "record":
            try:
                records.append(TraceRecord.from_dict(obj))
            except KeyError as exc:
                raise ValueError(f"line {lineno}: record lacks {exc}") from exc
        else:
            raise ValueError(f"line {lineno}: unknown entry type {kind!r}")
    if meta.get("format") != TELEMETRY_FORMAT:
        raise ValueError(f"not a {TELEMETRY_FORMAT} document")
    return {
        "format": TELEMETRY_FORMAT,
        "metrics": metrics,
        "records": records,
    }


# -- Chrome trace-event format -------------------------------------------


def chrome_trace_events(snapshot: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Snapshot records as Chrome trace-event objects.

    Span records become complete events (``ph: "X"``) with microsecond
    ``ts``/``dur``; other trace records become instant events
    (``ph: "i"``).  Tracks (``tid``) are assigned per component so the
    viewer lays each subsystem on its own row.
    """
    events: List[Dict[str, Any]] = []
    tids: Dict[str, int] = {}

    def tid_of(component: str) -> int:
        if component not in tids:
            tids[component] = len(tids) + 1
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 1,
                    "tid": tids[component],
                    "args": {"name": component},
                }
            )
        return tids[component]

    for record in snapshot.get("records", []):
        component = record.component
        data = record.data
        if component == SPAN_COMPONENT:
            track = record.kind.split(".", 1)[0]
            events.append(
                {
                    "name": record.kind,
                    "cat": SPAN_COMPONENT,
                    "ph": "X",
                    "pid": 1,
                    "tid": tid_of(track),
                    "ts": round(float(data.get("t0", record.time)) * 1e6, 3),
                    # Zero-duration spans (begin+end in one event) are
                    # legal; clamp so float noise can't go negative,
                    # which the trace viewer rejects.
                    "dur": round(max(0.0, float(data.get("dur", 0.0))) * 1e6, 3),
                    "args": {
                        k: v for k, v in data.items() if k not in ("t0", "t1", "dur")
                    },
                }
            )
        else:
            events.append(
                {
                    "name": f"{component}.{record.kind}",
                    "cat": component,
                    "ph": "i",
                    "s": "t",
                    "pid": 1,
                    "tid": tid_of(component),
                    "ts": round(float(record.time) * 1e6, 3),
                    "args": data,
                }
            )
    return events


def write_chrome_trace(snapshot: Dict[str, Any], fileobj: IO[str]) -> int:
    """Write the Chrome trace JSON; returns the number of events."""
    events = chrome_trace_events(snapshot)
    json.dump(
        {"traceEvents": events, "displayTimeUnit": "ms"},
        fileobj,
        sort_keys=True,
        separators=(",", ":"),
    )
    return len(events)


# -- Prometheus text exposition ------------------------------------------


def _format_value(value: float) -> str:
    """Render a sample value the way Prometheus clients do."""
    as_int = int(value)
    return str(as_int) if value == as_int else repr(value)


def _escape_help(text: str) -> str:
    """Escape a HELP string per the exposition format (``\\`` and LF)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(text: str) -> str:
    """Escape a label value (``\\``, ``"`` and LF)."""
    return (
        text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def render_prometheus(snapshot: Dict[str, Any]) -> str:
    """Metrics of a snapshot in the Prometheus text exposition format."""
    lines: List[str] = []
    for metric in snapshot.get("metrics", []):
        name = metric["name"]
        if metric.get("help"):
            lines.append(f"# HELP {name} {_escape_help(metric['help'])}")
        lines.append(f"# TYPE {name} {metric['type']}")
        if metric["type"] == "histogram":
            running = 0
            for bound, count in zip(metric["bounds"], metric["bucket_counts"]):
                running += count
                le = _escape_label_value(_format_value(float(bound)))
                lines.append(f'{name}_bucket{{le="{le}"}} {running}')
            # +Inf is the sum over *all* buckets (including overflow),
            # which keeps the series monotone even for snapshots whose
            # bucket_counts and bounds are the same length.
            lines.append(
                f'{name}_bucket{{le="+Inf"}} {sum(metric["bucket_counts"])}'
            )
            lines.append(f"{name}_sum {_format_value(metric['sum'])}")
            lines.append(f"{name}_count {metric['count']}")
        else:
            lines.append(f"{name} {_format_value(metric['value'])}")
    return "\n".join(lines) + ("\n" if lines else "")
