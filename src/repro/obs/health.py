"""Run-health SLO judge ("was this run inside its envelope?").

The paper's core claim is distributional — MNTP holds the offset error
inside a tight envelope where SNTP degrades — so a run's health is a
*continuous* property, not a one-shot verdict.  :func:`judge_health`
judges a finished run in one pass over its recorded exchanges and
fault windows, evaluating three windowed signals at a fixed interval
against a declarative :class:`SloSpec`:

* ``p99_abs_error_ms`` — p99 of |offset error| over the sliding window
  (|offset| when no ground truth is available for a sample);
* ``drop_rate_ratio`` — failed / attempted exchanges in the window;
* ``starvation_s`` — the oldest per-client age since the last accepted
  sample.

Evaluations drive a deterministic state machine (``ok`` → ``degraded``
→ ``violated`` → ``recovered``); every state change is recorded,
annotated with whether it happened inside a fault-injection window (or
its grace period) so an expected in-episode violation is distinguished
from a real one.  The verdict document is ``mntp-health-report-v1``.
The judge reads only the run's result, never its telemetry, so judging
a run changes nothing the run recorded, and a run and its archive are
judged alike.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, fields
from typing import Any, Dict, List, Optional, Tuple

from repro.codec import decode, encode

#: Format tag of the frozen verdict document.
HEALTH_FORMAT = "mntp-health-report-v1"

#: Signal evaluation order (deterministic tripping-signal tie-break).
#: Each entry: (signal name, warn field, violate field).
_SIGNALS = (
    ("p99_abs_error_ms", "p99_abs_error_warn_ms", "p99_abs_error_violate_ms"),
    ("drop_rate_ratio", "drop_rate_warn_ratio", "drop_rate_violate_ratio"),
    ("starvation_s", "starvation_warn_s", "starvation_violate_s"),
)


@dataclass(frozen=True)
class SloSpec:
    """Declarative SLO thresholds; every threshold carries its unit.

    JSON-round-trippable (:meth:`to_json` / :meth:`from_json`); unknown
    fields, non-finite numbers and a non-integer ``min_samples`` are
    rejected (naming the field) so a typo'd spec fails loudly instead
    of silently gating nothing.
    """

    window_s: float = 300.0
    eval_interval_s: float = 60.0
    min_samples: int = 5
    p99_abs_error_warn_ms: float = 50.0
    p99_abs_error_violate_ms: float = 200.0
    drop_rate_warn_ratio: float = 0.10
    drop_rate_violate_ratio: float = 0.50
    starvation_warn_s: float = 120.0
    starvation_violate_s: float = 600.0
    fault_grace_s: float = 90.0

    def __post_init__(self) -> None:
        # NaN compares False against everything, so a NaN threshold
        # would never trip and a NaN window would never prune.
        for spec_field in fields(self):
            value = getattr(self, spec_field.name)
            if spec_field.name == "min_samples":
                if isinstance(value, bool) or not isinstance(value, int):
                    raise ValueError(
                        f"min_samples must be an integer, got {value!r}"
                    )
            elif (
                isinstance(value, bool)
                or not isinstance(value, (int, float))
                or not math.isfinite(value)
            ):
                raise ValueError(
                    f"{spec_field.name} must be a finite number, "
                    f"got {value!r}"
                )
        if self.window_s <= 0:
            raise ValueError("window_s must be positive")
        if self.eval_interval_s <= 0:
            raise ValueError("eval_interval_s must be positive")
        if self.min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        if self.fault_grace_s < 0:
            raise ValueError("fault_grace_s must be non-negative")
        for _signal, warn_field, violate_field in _SIGNALS:
            warn = getattr(self, warn_field)
            violate = getattr(self, violate_field)
            if warn < 0 or violate < 0:
                raise ValueError(f"{warn_field}/{violate_field} must be >= 0")
            if warn > violate:
                raise ValueError(
                    f"{warn_field} must not exceed {violate_field}"
                )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready field mapping (declaration order)."""
        return encode(self)

    @classmethod
    def from_dict(cls, data: Any) -> "SloSpec":
        """Rebuild a spec; a bad key or value raises ``ValueError``."""
        return decode(cls, data, "slo")

    def to_json(self) -> str:
        """Canonical JSON encoding."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "SloSpec":
        """Parse :meth:`to_json` output (strict, like :meth:`from_dict`)."""
        return decode(cls, json.loads(text), "slo")


def _round(value: Optional[float], digits: int = 6) -> Optional[float]:
    """Stable float rounding for report/transition payloads."""
    return None if value is None else round(float(value), digits)


def _p99(values: List[float]) -> float:
    """Empirical 99th percentile (nearest-rank) of a non-empty list.

    The rank is ``ceil(0.99 * n)``, in integer arithmetic.
    """
    ranked = sorted(values)
    return ranked[-(-99 * len(ranked) // 100) - 1]


def _sample_ms(offset: float, truth: Optional[float]) -> float:
    """|offset error| in ms; |offset| when truth was not captured."""
    error = offset if truth is None or truth != truth else offset + truth
    return abs(float(error)) * 1e3


def _attempts(result: Any) -> List[Tuple[float, str, bool, Optional[float]]]:
    """Every exchange attempt as (time, client, ok, sample ms or None).

    Successful SNTP points, SNTP failures, then accepted MNTP reports,
    stably sorted by time.
    """
    attempts = [
        (float(p.time), "tn-sntp", True, _sample_ms(p.offset, p.truth))
        for p in result.sntp
    ]
    attempts += [
        (float(t), "tn-sntp", False, None) for t in result.sntp_failure_times
    ]
    attempts += [
        (float(r.time), "tn-mntp", True, _sample_ms(r.offset, r.truth))
        for r in result.mntp_reports if r.accepted
    ]
    attempts.sort(key=lambda attempt: attempt[0])
    return attempts


#: One evaluation's (level, tripping signal, value, threshold).
_Level = Tuple[str, Optional[str], Optional[float], Optional[float]]


def _judge(spec: SloSpec, signals: Dict[str, Optional[float]]) -> _Level:
    """The level one evaluation's signals reach, and what tripped it."""
    worst: _Level = ("ok", None, None, None)
    for signal, warn_field, violate_field in _SIGNALS:
        value = signals[signal]
        if value is None:
            continue
        warn = getattr(spec, warn_field)
        violate = getattr(spec, violate_field)
        if value >= violate:
            return ("violated", signal, value, violate)
        if value >= warn and worst[0] == "ok":
            worst = ("degraded", signal, value, warn)
    return worst


def judge_health(
    result: Any, spec: Optional[SloSpec] = None
) -> Dict[str, Any]:
    """Judge a finished run; returns its ``mntp-health-report-v1`` report.

    ``result`` is read duck-typed as a
    :class:`~repro.testbed.experiment.ExperimentResult`: successful
    SNTP points (error = offset + truth), ``sntp_failure_times``,
    accepted MNTP reports, and ``fault_windows`` as ``(start, end)``
    with ``start <= end``.  ``spec`` defaults to :class:`SloSpec`.

    Evaluations tick at ``k * eval_interval_s`` (built by repeated
    addition, as a recurring simulator event is) while that is below
    ``duration``; each sees the attempts strictly before its tick
    within the last ``window_s``.  A final evaluation at ``duration``
    sees every attempt and settles the report's state.  An evaluation
    at ``t`` (never after ``duration``) is in a fault window when an
    episode has started by ``t`` and either outlasts the run or ended
    at most ``fault_grace_s`` before ``t``.

    Raises:
        ValueError: The result does not record SNTP failure times or
            fault windows (an archive written before they existed).
    """
    failure_times = getattr(result, "sntp_failure_times", None)
    fault_windows = getattr(result, "fault_windows", None)
    if failure_times is None or fault_windows is None:
        raise ValueError(
            "result records no SNTP failure times or fault windows "
            "(archived by an older version?); re-run it to judge its health"
        )
    spec = spec if spec is not None else SloSpec()
    duration = float(result.duration)
    attempts = _attempts(result)
    times = [attempt[0] for attempt in attempts]
    # Prefix counts: samples and failures among attempts[:i].
    values: List[float] = []
    sampled = [0]
    failed = [0]
    for _t, _client, ok, value in attempts:
        if value is not None:
            values.append(value)
        sampled.append(len(values))
        failed.append(failed[-1] + (not ok))
    ticks = []
    tick = spec.eval_interval_s
    while tick < duration:
        ticks.append((tick, bisect_left(times, tick)))
        tick += spec.eval_interval_s
    ticks.append((duration, len(times)))

    first_seen: Dict[str, float] = {}
    last_ok: Dict[str, float] = {}
    seen = 0
    state = "ok"
    transitions: List[Dict[str, Any]] = []
    tally: Counter[Tuple[str, bool]] = Counter()  # per (level, in fault)
    worst: Dict[str, Optional[float]] = {name: None for name, *_ in _SIGNALS}
    for t, end in ticks:
        for t_attempt, client, ok, _value in attempts[seen:end]:
            first_seen.setdefault(client, t_attempt)
            if ok:
                last_ok[client] = t_attempt
        seen = end
        start = bisect_left(times, t - spec.window_s)
        window = values[sampled[start]:sampled[end]]
        attempted = end - start
        signals = {
            "p99_abs_error_ms": (
                _p99(window) if len(window) >= spec.min_samples else None
            ),
            "drop_rate_ratio": (
                (failed[end] - failed[start]) / attempted
                if attempted >= spec.min_samples else None
            ),
            "starvation_s": max(
                (t - last_ok.get(client, first)
                 for client, first in first_seen.items()),
                default=None,
            ),
        }
        for key, value in signals.items():
            seen_worst = worst[key]
            if value is not None and (seen_worst is None or value > seen_worst):
                worst[key] = value
        level, signal, value, threshold = _judge(spec, signals)
        in_fault = any(
            s <= t and (e > duration or t <= e + spec.fault_grace_s)
            for s, e in fault_windows
        )
        tally[level, in_fault] += 1
        # A healthy evaluation after a degraded/violated stretch lands on
        # ``recovered`` first, then settles back to ``ok`` on the next.
        if level == "ok":
            to_state = {"degraded": "recovered", "violated": "recovered",
                        "recovered": "ok"}.get(state, state)
        else:
            to_state = level
        if to_state != state:
            transitions.append({
                "t": _round(t),
                "from": state,
                "to": to_state,
                "signal": signal,
                "value": _round(value),
                "threshold": _round(threshold),
                "in_fault_window": in_fault,
            })
            state = to_state

    counts = Counter(f"{tr['from']}->{tr['to']}" for tr in transitions)
    verdict = (
        "violated" if tally["violated", False]
        else "degraded" if tally["degraded", False]
        else "pass"
    )
    return {
        "format": HEALTH_FORMAT,
        "spec": spec.to_dict(),
        "state": state,
        "verdict": verdict,
        "exchanges": len(attempts),
        "failures": failed[-1],
        "evaluations": len(ticks),
        "transitions": transitions,
        "transition_counts": dict(sorted(counts.items())),
        "violations_in_fault": tally["violated", True],
        "violations_outside_fault": tally["violated", False],
        "worst": {k: _round(v) for k, v in worst.items()},
    }


def render_health_text(report: Dict[str, Any]) -> str:
    """Human-readable report (the CLI prints this verbatim)."""
    worst = report["worst"]

    def fmt(value: Optional[float], unit: str) -> str:
        return "n/a" if value is None else f"{value:.2f}{unit}"

    lines = [
        f"verdict: {report['verdict']}  (final state: {report['state']})",
        f"exchanges: {report['exchanges']} "
        f"({report['failures']} failed), "
        f"{report['evaluations']} evaluations",
        "worst: "
        f"p99|err|={fmt(worst['p99_abs_error_ms'], 'ms')} "
        f"drop={fmt(worst['drop_rate_ratio'], '')} "
        f"starvation={fmt(worst['starvation_s'], 's')}",
        f"violations: {report['violations_outside_fault']} outside fault "
        f"windows, {report['violations_in_fault']} inside (annotated)",
    ]
    if report["transitions"]:
        lines += ["", "transitions:"]
        for tr in report["transitions"]:
            cause = ""
            if tr["signal"] is not None:
                cause = f"  {tr['signal']}={tr['value']} (>= {tr['threshold']})"
            fault = "  [fault window]" if tr["in_fault_window"] else ""
            lines.append(
                f"  t={tr['t']:9.2f}  {tr['from']} -> {tr['to']}{cause}{fault}"
            )
    else:
        lines.append("no state transitions (run stayed ok)")
    return "\n".join(lines)
