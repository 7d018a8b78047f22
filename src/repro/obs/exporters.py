"""Telemetry snapshot exporters: JSONL and Chrome trace-event.

Both render the snapshot produced by
:meth:`repro.obs.telemetry.Telemetry.snapshot`, whose records are
:class:`~repro.simcore.trace.TraceRecord` objects; the JSONL writer
is where a record becomes a dict:

* **JSONL** — one self-describing JSON object per line (``meta``,
  then one ``record`` line per record); the export
  ``trace --jsonl`` writes.
  Key order and float formatting are fixed, so identical runs produce
  byte-identical files.
* **Chrome trace-event** — a JSON document loadable in
  ``chrome://tracing`` / Perfetto; spans become complete (``"X"``)
  events on a per-component track, other records become instants.
"""

from __future__ import annotations

import json
from typing import IO, Any, Dict, Iterator, List

from repro.obs.spans import SPAN_COMPONENT
from repro.obs.telemetry import TELEMETRY_FORMAT


def _dumps(obj: Any) -> str:
    """Canonical JSON encoding (sorted keys, fixed separators)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# -- JSONL ---------------------------------------------------------------


def jsonl_lines(snapshot: Dict[str, Any]) -> Iterator[str]:
    """The JSONL export, line by line (without trailing newlines)."""
    records = snapshot.get("records", [])
    yield _dumps(
        {
            "type": "meta",
            "format": snapshot.get("format", TELEMETRY_FORMAT),
            "record_count": len(records),
        }
    )
    for record in records:
        yield _dumps({"type": "record", **record.to_dict()})


def write_jsonl(snapshot: Dict[str, Any], fileobj: IO[str]) -> int:
    """Write the JSONL export; returns the number of lines written."""
    n = 0
    for line in jsonl_lines(snapshot):
        fileobj.write(line + "\n")
        n += 1
    return n


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

