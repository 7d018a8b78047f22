"""Tuner trace format.

A trace is a time-ordered list of sampling instants; each entry carries
the wireless hints at that instant and the per-source SNTP offsets
(None where the query failed).  Serialised as JSON Lines so traces from
long experiments stream naturally.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, IO, Iterator, List, Optional

from repro.codec import decode, encode
from repro.wireless.hints import WirelessHints


@dataclass
class TraceEntry:
    """One sampling instant.

    Attributes:
        time: Seconds since trace start.
        rssi_dbm / noise_dbm: Wireless hints at request time (stored
            under the keys ``rssi`` / ``noise``).
        offsets: Per-source measured offset (seconds) or None if the
            query failed/timed out.
        true_offset: Ground-truth clock offset if the logger ran inside
            the simulator (None for real-world traces).
    """

    time: float
    rssi_dbm: float = field(metadata={"json": "rssi"})
    noise_dbm: float = field(metadata={"json": "noise"})
    offsets: Dict[str, Optional[float]] = field(default_factory=dict)
    true_offset: Optional[float] = None

    @property
    def hints(self) -> WirelessHints:
        """The entry's hints as a :class:`WirelessHints`."""
        return WirelessHints(rssi_dbm=self.rssi_dbm, noise_dbm=self.noise_dbm)

    def to_json(self) -> str:
        """One-line JSON encoding."""
        return json.dumps(encode(self), sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "TraceEntry":
        """Parse one JSONL line; a malformed line raises ``ValueError``."""
        return decode(cls, json.loads(line), "trace entry")


class OffsetTrace:
    """An ordered collection of :class:`TraceEntry` rows."""

    def __init__(self, entries: Optional[List[TraceEntry]] = None,
                 cadence: float = 5.0) -> None:
        self.entries = entries or []
        self.cadence = cadence

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[TraceEntry]:
        return iter(self.entries)

    def append(self, entry: TraceEntry) -> None:
        """Append an entry (must not go backwards in time)."""
        if self.entries and entry.time < self.entries[-1].time:
            raise ValueError("trace entries must be time-ordered")
        self.entries.append(entry)

    @property
    def duration(self) -> float:
        """Span covered by the trace (seconds)."""
        if not self.entries:
            return 0.0
        return self.entries[-1].time - self.entries[0].time

    def sources(self) -> List[str]:
        """All source names appearing anywhere in the trace."""
        names: List[str] = []
        for entry in self.entries:
            for name in entry.offsets:
                if name not in names:
                    names.append(name)
        return names

    # -- serialisation ------------------------------------------------------

    def save(self, fileobj: IO[str]) -> None:
        """Write as JSON Lines (first line is a header record)."""
        fileobj.write(json.dumps({"format": "mntp-trace-v1", "cadence": self.cadence}))
        fileobj.write("\n")
        for entry in self.entries:
            fileobj.write(entry.to_json())
            fileobj.write("\n")

    @classmethod
    def load(cls, fileobj: IO[str]) -> "OffsetTrace":
        """Read a JSONL trace."""
        header_line = fileobj.readline()
        if not header_line:
            return cls()
        header = json.loads(header_line)
        if header.get("format") != "mntp-trace-v1":
            raise ValueError("not an MNTP trace file")
        trace = cls(cadence=float(header.get("cadence", 5.0)))
        for line in fileobj:
            line = line.strip()
            if line:
                trace.append(TraceEntry.from_json(line))
        return trace
