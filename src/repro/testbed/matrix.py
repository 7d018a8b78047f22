"""Matrix runner over a directory of scenario specs.

Executes every :class:`~repro.testbed.specs.ScenarioSpec` JSON file in
a directory, each in its own worker process, and aggregates the
per-spec Success/Minimal-tier judgements into one deterministic
``mntp-matrix-report-v1`` document.  A worker that dies or hangs costs
exactly its own spec, never the matrix:

* **Isolation** — one ``multiprocessing.Process`` per spec with a
  one-way pipe back; a worker that exits without reporting marks its
  spec ``crashed``, and one that raises marks it ``error``.
* **Timeouts** — a worker that stays silent past the per-spec deadline
  is terminated and its spec marked ``timeout``.

Nothing is retried: every spec is a deterministic simulation for its
seed, so a second attempt would replay the same outcome.

Determinism: the report never mentions worker counts, wall-clock
times, or completion order — per-spec entries are sorted by name,
and worst-case tables break ties lexicographically — so ``--jobs 1``
and ``--jobs 4`` produce byte-identical reports for the same seed.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import multiprocessing.connection
import os
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.testbed.catalog import iter_spec_files
from repro.testbed.specs import ScenarioSpec, load_spec, run_spec

#: Format tag of the aggregated report document.
MATRIX_FORMAT = "mntp-matrix-report-v1"

#: Statuses that hard-fail the matrix (rc 1 in the CLI/CI gate).
HARD_FAIL_STATUSES = frozenset(
    {"failed", "crashed", "timeout", "error", "invalid"}
)

#: A worker callable: (spec JSON, seed) -> outcome payload.
Worker = Callable[[str, int], Dict[str, Any]]


@dataclass(frozen=True)
class MatrixOptions:
    """Matrix execution knobs.

    Attributes:
        seed: Root seed passed to every spec run.
        jobs: Worker processes running concurrently.
        timeout_s: Per-spec deadline; a silent worker past it is
            terminated and the spec marked ``timeout``.
        tags: When non-empty, only specs carrying every listed tag run
            (the CLI's ``--smoke`` is ``tags=("smoke",)``).
    """

    seed: int = 0
    jobs: int = 2
    timeout_s: float = 600.0
    tags: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        """Validate the knob ranges."""
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        # NaN compares false against every deadline, so a NaN timeout
        # would never kill a hung worker.
        if not (math.isfinite(self.timeout_s) and self.timeout_s > 0):
            raise ValueError("timeout_s must be a positive finite number")


def _execute_spec(spec_json: str, seed: int) -> Dict[str, Any]:
    """Default worker: run one spec and return its judged outcome.

    Module-level so it pickles under any multiprocessing start method;
    tests swap in scripted workers to exercise the failure paths.
    """
    spec = ScenarioSpec.from_json(spec_json)
    result, judgement = run_spec(spec, seed=seed)
    stats = result.sntp_error_stats()
    summary: Dict[str, Any] = {
        "duration_s": result.duration,
        "sntp_samples": stats.count,
        "sntp_mean_abs_error_ms": round(stats.mean_abs * 1000.0, 3),
        "sntp_failures": result.sntp_failures,
    }
    if result.mntp_reports:
        mntp = result.mntp_error_stats()
        summary["mntp_reports"] = len(result.mntp_reports)
        summary["mntp_mean_abs_error_ms"] = round(mntp.mean_abs * 1000.0, 3)
    return {
        "name": spec.name,
        "status": judgement["status"],
        "guarantees": judgement["guarantees"],
        "minimal_guarantees": judgement["minimal_guarantees"],
        "summary": summary,
    }


def _worker_main(conn: Any, worker: Worker, spec_json: str, seed: int) -> None:
    """Child-process entry: run the worker, ship the outcome, exit.

    Any exception is reported as an ``error`` message rather than a
    traceback on stderr, so the parent records it against the spec.
    """
    try:
        outcome = worker(spec_json, seed)
        conn.send(("ok", outcome))
    except Exception as exc:  # any spec failure must reach the parent
        conn.send(("error", f"{type(exc).__name__}: {exc}"))
    finally:
        conn.close()


def _entry(
    name: str,
    status: str,
    error: Optional[str] = None,
    outcome: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """One per-spec report entry (fixed key set for determinism)."""
    outcome = outcome or {}
    return {
        "name": name,
        "status": status,
        "error": error,
        "guarantees": outcome.get("guarantees"),
        "minimal_guarantees": outcome.get("minimal_guarantees"),
        "summary": outcome.get("summary"),
    }


def discover_specs(
    directory: str, tags: Tuple[str, ...] = ()
) -> Tuple[List[ScenarioSpec], List[Dict[str, Any]]]:
    """Load a spec directory fault-tolerantly.

    Returns (runnable specs sorted by name, ``invalid`` report entries
    for files that failed to load or collide on a name).  A broken
    file costs itself, never the directory — and it still hard-fails
    the matrix verdict, so CI catches it.
    """
    specs: Dict[str, ScenarioSpec] = {}
    first_file: Dict[str, str] = {}
    invalid: List[Dict[str, Any]] = []
    for path in iter_spec_files(directory):
        stem = os.path.splitext(os.path.basename(path))[0]
        try:
            spec = load_spec(path)
        except ValueError as exc:
            invalid.append(_entry(stem, "invalid", error=str(exc)))
            continue
        if spec.name in specs:
            invalid.append(_entry(
                stem, "invalid",
                error=f"{path}: duplicate spec name {spec.name!r} "
                f"(also defined by {first_file[spec.name]})",
            ))
            continue
        specs[spec.name] = spec
        first_file[spec.name] = path
    selected = [
        spec for _, spec in sorted(specs.items())
        if all(tag in spec.tags for tag in tags)
    ]
    return selected, invalid


def _reap(proc: Any) -> None:
    """Join a finished or terminated worker, killing it if it lingers."""
    proc.join(10.0)
    if proc.is_alive():
        proc.kill()
        proc.join(10.0)


def _run_pool(
    specs: List[ScenarioSpec], options: MatrixOptions, worker: Worker
) -> Dict[str, Dict[str, Any]]:
    """Run each spec in its own worker process, ``jobs`` at a time."""
    ctx = multiprocessing.get_context()
    entries: Dict[str, Dict[str, Any]] = {}
    queue = deque(specs)
    active: Dict[str, Dict[str, Any]] = {}

    def finish(name: str, status: str, payload: Any) -> None:
        """Record one spec's final report entry."""
        active.pop(name)["conn"].close()
        if status == "ok":
            entries[name] = _entry(name, payload["status"], outcome=payload)
        else:
            entries[name] = _entry(name, status, error=str(payload))

    while queue or active:
        while queue and len(active) < options.jobs:
            spec = queue.popleft()
            parent_conn, child_conn = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=_worker_main,
                args=(child_conn, worker, spec.to_json(), options.seed),
            )
            proc.start()
            child_conn.close()
            active[spec.name] = {
                "proc": proc,
                "conn": parent_conn,
                "deadline": time.monotonic() + options.timeout_s,
            }
        multiprocessing.connection.wait(
            [state["conn"] for state in active.values()], 0.05
        )
        for name in list(active):
            state = active[name]
            proc = state["proc"]
            message = None
            if state["conn"].poll():
                try:
                    message = state["conn"].recv()
                except (EOFError, OSError):
                    message = None
            if message is not None:
                _reap(proc)
                finish(name, message[0], message[1])
            elif not proc.is_alive():
                _reap(proc)
                finish(
                    name, "crashed",
                    "worker exited without reporting "
                    f"(exit code {proc.exitcode})",
                )
            elif time.monotonic() >= state["deadline"]:
                proc.terminate()
                _reap(proc)
                finish(name, "timeout",
                       f"no result within {options.timeout_s:g}s")
    return entries


def _worst_tables(specs: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Worst observed value of each health signal across the matrix.

    Ties break toward the lexicographically smallest spec name (the
    scan order), keeping the table independent of completion order.
    """
    worst: Dict[str, Any] = {}
    for entry in specs:
        report = entry.get("guarantees")
        if not report:
            continue
        for signal, value in report.get("worst", {}).items():
            if value is None:
                continue
            seen = worst.get(signal)
            if seen is None or value > seen["value"]:
                worst[signal] = {"value": value, "spec": entry["name"]}
    return worst


def run_matrix(
    directory: str,
    options: MatrixOptions = MatrixOptions(),
    worker: Optional[Worker] = None,
) -> Dict[str, Any]:
    """Execute a spec directory and return the aggregated report.

    Args:
        directory: Directory of ``.json`` spec files.
        options: Execution knobs (see :class:`MatrixOptions`).
        worker: Override of the per-spec worker callable — the test
            hook for injecting crashing/hanging/raising workers.
    """
    worker = worker if worker is not None else _execute_spec
    specs, invalid = discover_specs(directory, tags=options.tags)
    entries = _run_pool(specs, options, worker)
    for entry in invalid:
        entries[entry["name"]] = entry
    ordered = [entries[name] for name in sorted(entries)]
    return _aggregate(ordered, options)


def _aggregate(
    ordered: List[Dict[str, Any]], options: MatrixOptions
) -> Dict[str, Any]:
    """Assemble the final ``mntp-matrix-report-v1`` document."""
    counts: Dict[str, int] = {}
    for entry in ordered:
        counts[entry["status"]] = counts.get(entry["status"], 0) + 1
    hard_failed = [
        entry["name"] for entry in ordered
        if entry["status"] in HARD_FAIL_STATUSES
    ]
    return {
        "format": MATRIX_FORMAT,
        "seed": options.seed,
        "timeout_s": options.timeout_s,
        "tags": list(options.tags),
        "specs": ordered,
        "counts": {status: counts[status] for status in sorted(counts)},
        "worst": _worst_tables(ordered),
        "verdict": {"ok": not hard_failed, "hard_failed": hard_failed},
    }


def report_to_json(report: Dict[str, Any]) -> str:
    """Canonical JSON encoding of a matrix report."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def render_matrix_text(report: Dict[str, Any]) -> str:
    """Human-readable rendering of a matrix report (no trailing \\n)."""
    from repro.reporting.tables import render_table

    rows = []
    for entry in report["specs"]:
        guarantees = entry.get("guarantees") or {}
        worst = guarantees.get("worst", {})

        def cell(key: str, fmt: str) -> str:
            value = worst.get(key)
            return "n/a" if value is None else format(value, fmt)

        rows.append([
            entry["name"],
            entry["status"],
            guarantees.get("verdict", "n/a"),
            cell("p99_abs_error_ms", ".1f"),
            cell("drop_rate_ratio", ".2f"),
            cell("starvation_s", ".0f"),
            entry.get("error") or "",
        ])
    lines = [render_table(
        ["spec", "status", "verdict", "worst p99 (ms)",
         "worst drop", "worst starv (s)", "error"],
        rows,
    )]
    verdict = report["verdict"]
    counts = ", ".join(
        f"{status}={count}" for status, count in report["counts"].items()
    )
    lines.append(f"matrix: {counts or 'no specs'}")
    if verdict["ok"]:
        lines.append("matrix verdict: OK")
    else:
        lines.append(
            "matrix verdict: HARD FAIL "
            f"({', '.join(verdict['hard_failed'])})"
        )
    return "\n".join(lines)
