"""Experiment result persistence.

Saves :class:`~repro.testbed.experiment.ExperimentResult` objects as
JSON so runs can be archived, diffed across code versions, and
post-processed without re-simulating.  The format is versioned and
forward-checked on load.
"""

from __future__ import annotations

import json
from typing import IO, Any, Dict, List, Optional, Tuple

from repro.codec import decode, encode
from repro.core.protocol import MntpReport
from repro.obs.explain import explain_run
from repro.obs.health import SloSpec
from repro.simcore.trace import TraceRecord
from repro.testbed.experiment import ExperimentResult, OffsetPoint

FORMAT = "mntp-experiment-v1"

#: Worst-sample depth of the embedded explain report.
_EXPLAIN_WORST_N = 5


def result_to_dict(result: ExperimentResult) -> Dict[str, Any]:
    """Convert a result to a JSON-serialisable dict.

    The run's telemetry snapshot rides along under ``"telemetry"``
    when present, its records in their dict form, so archived runs
    stay inspectable with
    ``repro-mntp trace`` / ``repro-mntp metrics``; a compact
    root-cause report (``repro.obs.explain``) is embedded under
    ``"explain"`` so archives answer "why was this run noisy?"
    without re-assembly.  SNTP failure times and fault windows ride
    along so ``repro-mntp health`` can judge the archive.
    """
    out = {
        "format": FORMAT,
        "duration": result.duration,
        "sntp_failures": result.sntp_failures,
        "sntp_failure_times": result.sntp_failure_times,
        "fault_windows": result.fault_windows,
        "sntp": [_point(p) for p in result.sntp],
        "true_offsets": [_point(p) for p in result.true_offsets],
        "mntp_reports": encode(result.mntp_reports),
    }
    if result.telemetry is not None:
        out["telemetry"] = {
            **result.telemetry,
            "records": [r.to_dict() for r in result.telemetry["records"]],
        }
        out["explain"] = explain_run(
            result.telemetry, samples=result.offset_samples()
        ).to_dict(worst_n=_EXPLAIN_WORST_N)
    return out


def result_from_dict(data: Dict[str, Any]) -> ExperimentResult:
    """Rebuild a result from :func:`result_to_dict` output.

    Telemetry records come back as :class:`TraceRecord` objects, as
    in a fresh run.  An archive written before failure times and fault
    windows were recorded loads with those fields None.

    Raises:
        ValueError: On a document of another format, one missing a
            required key (the message names the key), or a field of the
            wrong type (the message names its JSON path, e.g.
            ``sntp[3].o must be a finite number, got None``).
    """
    if not isinstance(data, dict) or data.get("format") != FORMAT:
        raise ValueError(f"not a {FORMAT} document")
    try:
        return _result_from_dict(data)
    except KeyError as exc:
        raise ValueError(f"archive is missing key {exc.args[0]!r}") from exc


def _result_from_dict(data: Dict[str, Any]) -> ExperimentResult:
    result = ExperimentResult(
        duration=decode(float, data["duration"], "duration"),
        sntp_failures=decode(int, data.get("sntp_failures", 0), "sntp_failures"),
        sntp_failure_times=decode(
            Optional[List[float]], data.get("sntp_failure_times"),
            "sntp_failure_times",
        ),
        fault_windows=decode(
            Optional[List[Tuple[float, float]]], data.get("fault_windows"),
            "fault_windows",
        ),
        sntp=decode(List[OffsetPoint], data.get("sntp", []), "sntp"),
        true_offsets=decode(
            List[OffsetPoint], data.get("true_offsets", []), "true_offsets"
        ),
        mntp_reports=decode(
            List[MntpReport], data.get("mntp_reports", []), "mntp_reports"
        ),
    )
    telemetry = decode(
        Optional[Dict[str, Any]], data.get("telemetry"), "telemetry"
    )
    if telemetry is not None:
        records = decode(
            List[Dict[str, Any]], telemetry.get("records", []),
            "telemetry.records",
        )
        telemetry["records"] = [
            TraceRecord.from_dict({
                **record,
                "data": decode(
                    Optional[Dict[str, Any]], record.get("data"),
                    f"telemetry.records[{index}].data",
                ),
            })
            for index, record in enumerate(records)
        ]
    result.telemetry = telemetry
    result.explain = data.get("explain")
    return result


def save_result(
    result: ExperimentResult,
    fileobj: IO[str],
    guarantees: Optional[SloSpec] = None,
) -> None:
    """Write a result as JSON.

    ``guarantees``, the scenario's Success-tier spec, is archived under
    ``"guarantees"`` so ``repro-mntp health`` judges the archive as the
    matrix judges the run.
    """
    data = result_to_dict(result)
    if guarantees is not None:
        data["guarantees"] = guarantees.to_dict()
    json.dump(data, fileobj)


def load_result(fileobj: IO[str]) -> ExperimentResult:
    """Read a result written by :func:`save_result`."""
    return result_from_dict(json.load(fileobj))


def load_archive(
    fileobj: IO[str],
) -> Tuple[ExperimentResult, Optional[SloSpec]]:
    """Read a result and its archived guarantees (None if it has none).

    Malformed guarantees raise ``ValueError`` naming their path.
    """
    data = json.load(fileobj)
    result = result_from_dict(data)
    guarantees = data.get("guarantees")
    if guarantees is not None:
        guarantees = decode(SloSpec, guarantees, "guarantees")
    return result, guarantees


def _point(p: OffsetPoint) -> Dict[str, Any]:
    out: Dict[str, Any] = {"t": p.time, "o": p.offset}
    if p.truth == p.truth:  # not NaN
        out["truth"] = p.truth
    return out
