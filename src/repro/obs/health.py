"""Run-health SLO judge ("was this run inside its envelope?").

The paper's core claim is distributional — MNTP holds the offset error
inside a tight envelope where SNTP degrades — so a run's health is a
*continuous* property, not a one-shot verdict.  :func:`judge_health`
judges a finished run: it replays the run's recorded exchanges and
fault windows, in time order, through :class:`HealthMonitor`, which
evaluates four windowed signals against a declarative :class:`SloSpec`:

* ``p99_abs_error_ms`` — p99 of |offset error| over the sliding window
  (|offset| when no ground truth is available for a sample);
* ``drop_rate_ratio`` — failed / attempted exchanges in the window;
* ``starvation_s`` — the oldest per-client age since the last accepted
  sample;
* ``exchange_rate_per_s`` — attempted exchanges per second (disabled
  unless the spec sets a positive threshold).

Evaluations drive a deterministic state machine (``ok`` → ``degraded``
→ ``violated`` → ``recovered``); every state change is recorded,
annotated with whether it happened inside a fault-injection window (or
its grace period) so an expected in-episode violation is distinguished
from a real one.  :meth:`HealthMonitor.report` freezes everything into
the ``mntp-health-report-v1`` verdict document.  The judge reads only
the run's result, never its telemetry, so judging a run changes
nothing the run recorded, and a run and its archive are judged alike.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass, fields
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.codec import decode, encode

#: Format tag of the frozen verdict document.
HEALTH_FORMAT = "mntp-health-report-v1"

#: The monitor's states, in escalation order.
HEALTH_STATES = ("ok", "degraded", "violated", "recovered")

#: Signal evaluation order (deterministic tripping-signal tie-break).
#: Each entry: (signal name, warn field, violate field, low_is_bad).
_SIGNALS = (
    ("p99_abs_error_ms", "p99_abs_error_warn_ms",
     "p99_abs_error_violate_ms", False),
    ("drop_rate_ratio", "drop_rate_warn_ratio",
     "drop_rate_violate_ratio", False),
    ("starvation_s", "starvation_warn_s", "starvation_violate_s", False),
    ("exchange_rate_per_s", "exchange_rate_warn_per_s",
     "exchange_rate_violate_per_s", True),
)


@dataclass(frozen=True)
class SloSpec:
    """Declarative SLO thresholds; every threshold carries its unit.

    JSON-round-trippable (:meth:`to_json` / :meth:`from_json`); unknown
    fields, non-finite numbers and a non-integer ``min_samples`` are
    rejected (naming the field) so a typo'd spec fails loudly instead
    of silently gating nothing.  ``exchange_rate_*_per_s`` at 0 disables
    the rate signal (a run's natural cadence is scenario-specific).
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
    exchange_rate_warn_per_s: float = 0.0
    exchange_rate_violate_per_s: float = 0.0
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
        for _signal, warn_field, violate_field, low_is_bad in _SIGNALS:
            warn = getattr(self, warn_field)
            violate = getattr(self, violate_field)
            if warn < 0 or violate < 0:
                raise ValueError(f"{warn_field}/{violate_field} must be >= 0")
            if low_is_bad:
                if violate > warn:
                    raise ValueError(
                        f"{violate_field} must not exceed {warn_field} "
                        "(lower rates are worse)"
                    )
            elif warn > violate:
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


class HealthMonitor:
    """SLO evaluation over a sliding window, fed in time order.

    Args:
        spec: Thresholds to judge against (defaults apply when None).
    """

    def __init__(self, spec: Optional[SloSpec] = None) -> None:
        self.spec = spec if spec is not None else SloSpec()
        self.state = "ok"
        self.transitions: List[Dict[str, Any]] = []
        self.exchanges = 0
        self.failures = 0
        self.evaluations = 0
        self._samples: Deque[Tuple[float, float]] = deque()
        self._attempts: Deque[Tuple[float, bool]] = deque()
        self._first_seen: Dict[str, float] = {}
        self._last_ok: Dict[str, float] = {}
        self._t_first: Optional[float] = None
        self._fault_depth = 0
        self._last_fault_end: Optional[float] = None
        self._violations_in_fault = 0
        self._violations_outside_fault = 0
        self._degraded_outside_fault = 0
        self._worst: Dict[str, Optional[float]] = {
            "p99_abs_error_ms": None,
            "drop_rate_ratio": None,
            "starvation_s": None,
            "min_exchange_rate_per_s": None,
        }

    # -- feed --------------------------------------------------------------

    def observe_exchange(
        self,
        t: float,
        client: str,
        ok: bool,
        offset_s: Optional[float] = None,
        error_s: Optional[float] = None,
    ) -> None:
        """Record one exchange outcome.

        ``error_s`` (offset + truth) feeds the p99 signal when ground
        truth is known; otherwise the raw ``offset_s`` stands in, so
        the monitor degrades gracefully on truth-free runs.
        """
        t = float(t)
        if self._t_first is None:
            self._t_first = t
        self.exchanges += 1
        self._attempts.append((t, bool(ok)))
        self._first_seen.setdefault(client, t)
        if ok:
            self._last_ok[client] = t
            value = error_s if error_s is not None else offset_s
            if value is not None:
                self._samples.append((t, abs(float(value)) * 1e3))
        else:
            self.failures += 1

    def fault_begin(self, t: float) -> None:
        """A fault-injection episode opened (episodes may overlap)."""
        self._fault_depth += 1

    def fault_end(self, t: float) -> None:
        """A fault-injection episode closed; its grace period starts."""
        self._fault_depth = max(0, self._fault_depth - 1)
        t = float(t)
        if self._last_fault_end is None or t > self._last_fault_end:
            self._last_fault_end = t

    def in_fault_window(self, t: float) -> bool:
        """Whether ``t`` falls in an episode or its grace period."""
        if self._fault_depth > 0:
            return True
        return (
            self._last_fault_end is not None
            and float(t) <= self._last_fault_end + self.spec.fault_grace_s
        )

    # -- evaluation --------------------------------------------------------

    def _prune(self, t: float) -> None:
        horizon = t - self.spec.window_s
        while self._samples and self._samples[0][0] < horizon:
            self._samples.popleft()
        while self._attempts and self._attempts[0][0] < horizon:
            self._attempts.popleft()

    def _signals(self, t: float) -> Dict[str, Optional[float]]:
        spec = self.spec
        p99 = (
            _p99([v for _t, v in self._samples])
            if len(self._samples) >= spec.min_samples
            else None
        )
        drop: Optional[float] = None
        if len(self._attempts) >= spec.min_samples:
            failed = sum(1 for _t, ok in self._attempts if not ok)
            drop = failed / len(self._attempts)
        starvation: Optional[float] = None
        for client in sorted(self._first_seen):
            last = self._last_ok.get(client, self._first_seen[client])
            age = t - last
            if starvation is None or age > starvation:
                starvation = age
        rate: Optional[float] = None
        if self._t_first is not None:
            covered = min(spec.window_s, t - self._t_first)
            if covered > 0:
                rate = len(self._attempts) / covered
        return {
            "p99_abs_error_ms": p99,
            "drop_rate_ratio": drop,
            "starvation_s": starvation,
            "exchange_rate_per_s": rate,
        }

    def _judge(
        self, signals: Dict[str, Optional[float]]
    ) -> Tuple[str, Optional[str], Optional[float], Optional[float]]:
        """(level, tripping signal, value, threshold) for one evaluation."""
        worst = ("ok", None, None, None)
        for signal, warn_field, violate_field, low_is_bad in _SIGNALS:
            value = signals.get(signal)
            if value is None:
                continue
            warn = getattr(self.spec, warn_field)
            violate = getattr(self.spec, violate_field)
            if low_is_bad:
                if violate <= 0:
                    continue  # the rate signal is opt-in
                tripped = (
                    "violated" if value < violate
                    else "degraded" if value < warn
                    else "ok"
                )
            else:
                tripped = (
                    "violated" if value >= violate
                    else "degraded" if value >= warn
                    else "ok"
                )
            if tripped == "violated":
                return ("violated", signal, value, violate)
            if tripped == "degraded" and worst[0] == "ok":
                worst = ("degraded", signal, value, warn)
        return worst

    def _track_worst(self, signals: Dict[str, Optional[float]]) -> None:
        for key in ("p99_abs_error_ms", "drop_rate_ratio", "starvation_s"):
            value = signals.get(key)
            if value is None:
                continue
            seen = self._worst[key]
            if seen is None or value > seen:
                self._worst[key] = value
        rate = signals.get("exchange_rate_per_s")
        if rate is not None:
            seen = self._worst["min_exchange_rate_per_s"]
            if seen is None or rate < seen:
                self._worst["min_exchange_rate_per_s"] = rate

    def _transition(
        self,
        t: float,
        to_state: str,
        signal: Optional[str],
        value: Optional[float],
        threshold: Optional[float],
        in_fault: bool,
    ) -> None:
        entry = {
            "t": _round(t),
            "from": self.state,
            "to": to_state,
            "signal": signal,
            "value": _round(value),
            "threshold": _round(threshold),
            "in_fault_window": in_fault,
        }
        self.transitions.append(entry)
        self.state = to_state

    def evaluate(self, t: float) -> Dict[str, Any]:
        """Judge the window ending at ``t``; returns the evaluation row.

        Drives the state machine: a healthy evaluation after a
        degraded/violated stretch lands on ``recovered`` first, then
        settles back to ``ok`` on the next healthy evaluation.
        """
        t = float(t)
        self.evaluations += 1
        self._prune(t)
        signals = self._signals(t)
        self._track_worst(signals)
        level, signal, value, threshold = self._judge(signals)
        in_fault = self.in_fault_window(t)
        if level == "violated":
            if in_fault:
                self._violations_in_fault += 1
            else:
                self._violations_outside_fault += 1
        elif level == "degraded" and not in_fault:
            self._degraded_outside_fault += 1
        if level == "ok":
            if self.state in ("degraded", "violated"):
                self._transition(t, "recovered", None, None, None, in_fault)
            elif self.state == "recovered":
                self._transition(t, "ok", None, None, None, in_fault)
        elif level != self.state:
            self._transition(t, level, signal, value, threshold, in_fault)
        return {
            "t": _round(t),
            "state": self.state,
            "level": level,
            "signal": signal,
            "in_fault_window": in_fault,
            "signals": {k: _round(v) for k, v in signals.items()},
        }

    # -- verdict -----------------------------------------------------------

    def report(self) -> Dict[str, Any]:
        """Freeze the run's health into ``mntp-health-report-v1``."""
        counts: Dict[str, int] = {}
        for tr in self.transitions:
            key = f"{tr['from']}->{tr['to']}"
            counts[key] = counts.get(key, 0) + 1
        if self._violations_outside_fault > 0:
            verdict = "violated"
        elif self._degraded_outside_fault > 0:
            verdict = "degraded"
        else:
            verdict = "pass"
        return {
            "format": HEALTH_FORMAT,
            "spec": self.spec.to_dict(),
            "state": self.state,
            "verdict": verdict,
            "exchanges": self.exchanges,
            "failures": self.failures,
            "evaluations": self.evaluations,
            "transitions": list(self.transitions),
            "transition_counts": dict(sorted(counts.items())),
            "violations_in_fault": self._violations_in_fault,
            "violations_outside_fault": self._violations_outside_fault,
            "worst": {k: _round(v) for k, v in self._worst.items()},
        }


def _error(offset: float, truth: Optional[float]) -> Optional[float]:
    """Offset error (offset + truth); None when truth was not captured."""
    if truth is None or truth != truth:  # None / NaN
        return None
    return offset + truth


def judge_health(
    result: Any, spec: Optional[SloSpec] = None
) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """Judge a finished run; returns (report, evaluation rows).

    ``result`` is read duck-typed as a
    :class:`~repro.testbed.experiment.ExperimentResult`: successful
    SNTP points (error = offset + truth), ``sntp_failure_times``,
    accepted MNTP reports, and ``fault_windows`` as ``(start, end)``.
    Fault boundaries after ``duration`` never happened in the run and
    are skipped.  Evaluations tick at ``k * eval_interval_s`` (built by
    repeated addition, as a recurring simulator event is) while that is
    below ``duration``; one row per tick is returned.  A final
    evaluation at ``duration`` settles the report's state; it comes
    after every event of that instant, since a run fires everything up
    to its end before it is judged.

    Events at one instant are ordered fault boundaries, then the
    evaluation, then exchanges: the order a simulator fires them in,
    since the boundaries are scheduled at set-up and each tick one
    interval ahead, before the exchanges of its instant.

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
    monitor = HealthMonitor(spec)
    duration = float(result.duration)
    rows: List[Dict[str, Any]] = []

    def evaluate(t: float) -> None:
        rows.append(monitor.evaluate(t))

    # (time, same-instant rank, action, args); the sort is stable, so
    # equal keys keep the order appended here.
    events: List[Tuple[float, int, Callable[..., Any], Tuple[Any, ...]]] = []
    for start, end in fault_windows:
        if start <= duration:
            events.append((start, 0, monitor.fault_begin, ()))
        if end <= duration:
            events.append((end, 0, monitor.fault_end, ()))
    interval = monitor.spec.eval_interval_s
    tick = interval
    while tick < duration:
        events.append((tick, 1, evaluate, ()))
        tick += interval
    for point in result.sntp:
        events.append((point.time, 2, monitor.observe_exchange, (
            "tn-sntp", True, point.offset, _error(point.offset, point.truth),
        )))
    for t in failure_times:
        events.append((t, 2, monitor.observe_exchange, ("tn-sntp", False)))
    for report in result.mntp_reports:
        if report.accepted:
            events.append((report.time, 2, monitor.observe_exchange, (
                "tn-mntp", True, report.offset,
                _error(report.offset, report.truth),
            )))
    events.sort(key=lambda event: event[:2])
    for t, _rank, action, args in events:
        action(t, *args)
    monitor.evaluate(duration)
    return monitor.report(), rows


def smoke_spec() -> SloSpec:
    """The SLO spec the ``chaos_smoke`` scenario is judged against.

    ``scenarios/chaos_smoke.json`` embeds it verbatim as its guarantees
    block (a test pins the two equal), so the ``matrix scenarios
    --smoke`` CI gate judges with it.  Tuned to that scenario: a window
    short enough to flush fault-era samples soon after each episode,
    and a grace period covering the post-episode settling, so a run
    shows the full ok → degraded/violated → recovered cycle with every
    violation annotated as in-fault.
    """
    return SloSpec(
        window_s=120.0,
        fault_grace_s=120.0,
        drop_rate_warn_ratio=0.2,
        drop_rate_violate_ratio=0.5,
    )


def recovered_transitions(report: Dict[str, Any]) -> int:
    """How many transitions in a report landed on ``recovered``."""
    return sum(
        count
        for key, count in report.get("transition_counts", {}).items()
        if key.endswith("->recovered")
    )


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
        f"starvation={fmt(worst['starvation_s'], 's')} "
        f"min-rate={fmt(worst['min_exchange_rate_per_s'], '/s')}",
        f"violations: {report['violations_outside_fault']} outside fault "
        f"windows, {report['violations_in_fault']} inside (annotated)",
    ]
    if report["transitions"]:
        lines.append("")
        lines.append("transitions:")
        for tr in report["transitions"]:
            cause = ""
            if tr["signal"] is not None:
                cause = f"  {tr['signal']}={tr['value']} (>= {tr['threshold']})"
                sig = tr["signal"]
                if sig == "exchange_rate_per_s":
                    cause = (
                        f"  {sig}={tr['value']} (< {tr['threshold']})"
                    )
            fault = "  [fault window]" if tr["in_fault_window"] else ""
            lines.append(
                f"  t={tr['t']:9.2f}  {tr['from']} -> {tr['to']}{cause}{fault}"
            )
    else:
        lines.append("no state transitions (run stayed ok)")
    return "\n".join(lines)
