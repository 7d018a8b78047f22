"""Canonical, order-independent merge of telemetry shard snapshots.

The ROADMAP #1 shard split fans simulation work across processes; each
worker produces one telemetry snapshot and this module defines the
contract for combining them:

* **Envelope** — :data:`SHARD_FORMAT` (``mntp-telemetry-shard-v1``)
  wraps a plain ``mntp-telemetry-v1`` snapshot with a shard id and
  free-form metadata.  Bare snapshots are also accepted; they get a
  content-derived id so the merge stays order-independent.
* **Metrics** — counters sum; histograms bucket-merge (bounds must
  agree); a gauge takes the value of the shard that wrote it most
  (ties broken by the larger value) with update counts summed.
* **Records** — interleaved by *monotonised* time: within one shard
  the original order is preserved exactly (span records are stamped at
  their begin time but appended at end time, so a plain time sort
  would reorder a single shard and break the identity property).
  Across shards, records interleave by the running-maximum timestamp,
  then by shard id, then by within-shard position.

The merge is **canonical**: any permutation of the same shards yields
a byte-identical JSONL export, and merging a single shard is the
identity.  The scenario matrix runner (:mod:`repro.testbed.matrix`)
is the multi-shard consumer: one envelope per spec, merged into one
canonical document.
"""

from __future__ import annotations

import hashlib
import heapq
import json
from typing import IO, Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.obs.telemetry import TELEMETRY_FORMAT

__all__ = [
    "SHARD_FORMAT",
    "content_id",
    "iter_merged_records",
    "make_shard",
    "merge_documents",
    "write_merged_jsonl",
]

#: Format tag of the shard envelope.
SHARD_FORMAT = "mntp-telemetry-shard-v1"

Snapshot = Dict[str, Any]


def content_id(snapshot: Snapshot) -> str:
    """Deterministic id for a bare snapshot (sha256 of canonical JSON)."""
    blob = json.dumps(snapshot, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def make_shard(
    snapshot: Snapshot, shard_id: str, meta: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    """Wrap one telemetry snapshot in the shard envelope."""
    if snapshot.get("format") != TELEMETRY_FORMAT:
        raise ValueError(f"not a {TELEMETRY_FORMAT} snapshot")
    return {
        "format": SHARD_FORMAT,
        "shard": str(shard_id),
        "snapshot": snapshot,
        "meta": dict(meta or {}),
    }


def coerce_shard(document: Dict[str, Any]) -> Tuple[str, Snapshot]:
    """(shard id, snapshot) from an envelope or a bare snapshot.

    Raises:
        ValueError: If the document is neither format.
    """
    fmt = document.get("format")
    if fmt == SHARD_FORMAT:
        snapshot = document.get("snapshot", {})
        if snapshot.get("format") != TELEMETRY_FORMAT:
            raise ValueError("shard envelope without a telemetry snapshot")
        return str(document.get("shard", "")), snapshot
    if fmt == TELEMETRY_FORMAT:
        return content_id(document), document
    raise ValueError(
        f"expected {SHARD_FORMAT} or {TELEMETRY_FORMAT}, got {fmt!r}"
    )


def _ordered_shards(
    documents: Sequence[Dict[str, Any]],
) -> List[Tuple[str, Snapshot]]:
    """Shards sorted by id — the step that makes the merge order-free."""
    shards = [coerce_shard(doc) for doc in documents]
    by_id: Dict[str, Snapshot] = {}
    for shard_id, snapshot in shards:
        seen = by_id.get(shard_id)
        if seen is not None and seen is not snapshot and seen != snapshot:
            raise ValueError(f"conflicting shards share id {shard_id!r}")
        by_id[shard_id] = snapshot
    return [(shard_id, by_id[shard_id]) for shard_id in sorted(by_id)]


# -- records ---------------------------------------------------------------


def iter_merged_records(
    shards: Sequence[Tuple[str, Snapshot]],
) -> Iterator[Dict[str, Any]]:
    """Lazily interleave shard records by monotonised time.

    Each shard contributes a generator; ``heapq.merge`` holds one
    record per shard at a time, so the merge is O(shards) in memory
    regardless of record counts.
    """

    def keyed(
        rank: int, records: List[Dict[str, Any]]
    ) -> Iterator[Tuple[Tuple[float, int, int], Dict[str, Any]]]:
        ceiling = float("-inf")
        for idx, record in enumerate(records):
            t = float(record.get("t", 0.0))
            if t > ceiling:
                ceiling = t
            yield (ceiling, rank, idx), record

    streams = [
        keyed(rank, snapshot.get("records", []))
        for rank, (_shard_id, snapshot) in enumerate(shards)
    ]
    for _key, record in heapq.merge(*streams, key=lambda pair: pair[0]):
        yield record


# -- metrics ---------------------------------------------------------------


def _merge_metric_group(name: str, group: List[Dict[str, Any]]) -> Dict[str, Any]:
    kinds = {metric["type"] for metric in group}
    if len(kinds) != 1:
        raise ValueError(f"metric {name!r} has conflicting types {sorted(kinds)}")
    kind = group[0]["type"]
    help_text = max(metric.get("help", "") for metric in group)
    if kind == "counter":
        return {
            "name": name,
            "type": kind,
            "help": help_text,
            "value": sum(metric["value"] for metric in group),
        }
    if kind == "gauge":
        # The shard that updated the gauge most wins (ties: larger
        # value) — deterministic regardless of merge order.
        best = max(group, key=lambda m: (m.get("updates", 0), m["value"]))
        return {
            "name": name,
            "type": kind,
            "help": help_text,
            "value": best["value"],
            "updates": sum(metric.get("updates", 0) for metric in group),
        }
    if kind == "histogram":
        bounds = group[0]["bounds"]
        for metric in group[1:]:
            if metric["bounds"] != bounds:
                raise ValueError(f"histogram {name!r} has mismatched bounds")
        merged_counts = [0] * len(group[0]["bucket_counts"])
        for metric in group:
            for i, count in enumerate(metric["bucket_counts"]):
                merged_counts[i] += count
        return {
            "name": name,
            "type": kind,
            "help": help_text,
            "bounds": list(bounds),
            "bucket_counts": merged_counts,
            "sum": sum(metric["sum"] for metric in group),
            "count": sum(metric["count"] for metric in group),
        }
    raise ValueError(f"metric {name!r} has unknown type {kind!r}")


def _merge_metrics(
    shards: Sequence[Tuple[str, Snapshot]],
) -> List[Dict[str, Any]]:
    groups: Dict[str, List[Dict[str, Any]]] = {}
    for _shard_id, snapshot in shards:
        for metric in snapshot.get("metrics", []):
            groups.setdefault(metric["name"], []).append(metric)
    return [_merge_metric_group(name, groups[name]) for name in sorted(groups)]


# -- sampling / exemplars --------------------------------------------------


def _merge_sampling(
    shards: Sequence[Tuple[str, Snapshot]],
) -> Optional[Dict[str, Any]]:
    infos = [
        snapshot["sampling"]
        for _sid, snapshot in shards
        if "sampling" in snapshot
    ]
    if not infos:
        return None
    return {
        "rate": max(info.get("rate", 1) for info in infos),
        "kept": sum(info.get("kept", 0) for info in infos),
        "dropped": sum(info.get("dropped", 0) for info in infos),
    }


def _merge_exemplars(
    shards: Sequence[Tuple[str, Snapshot]],
) -> Dict[str, Any]:
    groups: Dict[str, List[Dict[str, Any]]] = {}
    for _sid, snapshot in shards:
        for name, reservoir in snapshot.get("exemplars", {}).items():
            groups.setdefault(name, []).append(reservoir)
    merged: Dict[str, Any] = {}
    for name in sorted(groups):
        reservoirs = groups[name]
        capacity = max(r.get("capacity", 1) for r in reservoirs)
        entries = sorted(
            (
                (e["key"], e["value"], e.get("ref", ""))
                for r in reservoirs
                for e in r.get("entries", [])
            ),
        )[:capacity]
        merged[name] = {
            "capacity": capacity,
            "seen": sum(r.get("seen", 0) for r in reservoirs),
            "entries": [
                {"key": k, "value": v, "ref": ref} for k, v, ref in entries
            ],
        }
    return merged


# -- whole-snapshot merge --------------------------------------------------


def merge_documents(documents: Sequence[Dict[str, Any]]) -> Snapshot:
    """Merge shard envelopes/snapshots into one canonical snapshot.

    The result is independent of input order (shards are re-ranked by
    id) and merging a single document returns a snapshot equal to it.
    """
    if not documents:
        raise ValueError("nothing to merge")
    shards = _ordered_shards(documents)
    if len(shards) == 1:
        # True identity transform: a lone shard's snapshot passes
        # through whole, preserving top-level sections this version
        # doesn't know about instead of rebuilding from known keys.
        return dict(shards[0][1])
    merged: Snapshot = {
        "format": TELEMETRY_FORMAT,
        "metrics": _merge_metrics(shards),
        "records": list(iter_merged_records(shards)),
    }
    sampling = _merge_sampling(shards)
    if sampling is not None:
        merged["sampling"] = sampling
    exemplars = _merge_exemplars(shards)
    if exemplars:
        merged["exemplars"] = exemplars
    return merged


def write_merged_jsonl(
    documents: Sequence[Dict[str, Any]], fileobj: IO[str]
) -> int:
    """Stream the canonical merged JSONL without materialising records.

    Metrics and exemplars merge eagerly (they are small); the record
    stream interleaves lazily, so memory stays O(shards).  Returns the
    number of lines written.
    """
    from repro.obs.exporters import write_jsonl

    if not documents:
        raise ValueError("nothing to merge")
    shards = _ordered_shards(documents)
    if len(shards) == 1:
        # Same identity guarantee as merge_documents: envelope in,
        # byte-identical envelope out.
        return write_jsonl(dict(shards[0][1]), fileobj)
    head: Snapshot = {
        "format": TELEMETRY_FORMAT,
        "metrics": _merge_metrics(shards),
    }
    sampling = _merge_sampling(shards)
    if sampling is not None:
        head["sampling"] = sampling
    exemplars = _merge_exemplars(shards)
    if exemplars:
        head["exemplars"] = exemplars
    total = sum(len(snapshot.get("records", [])) for _sid, snapshot in shards)
    return write_jsonl(
        head,
        fileobj,
        records=iter_merged_records(shards),
        record_count=total,
    )
