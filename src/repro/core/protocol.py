"""The MNTP protocol state machine — Algorithm 1 of the paper.

Structure mirrors the pseudocode:

* **Warm-up phase** (steps 4-14): wait for a favorable channel, query
  three pool servers in parallel, reject false tickers (mean+1σ),
  record the combined offset (no clock update), repeat every
  ``warmup_wait_time`` until ``warmup_period`` elapses, then estimate
  drift as the trend-line slope.
* **Regular phase** (steps 16-26): correct the clock drift once, then
  per round wait for a favorable channel, query a single source, run
  the trend-line filter, and on acceptance step the system clock;
  repeat every ``regular_wait_time``.
* **Reset** (steps 23-24): after ``reset_period`` the whole algorithm
  restarts from the warm-up.

Clock corrections are tracked in a *compensation* model so the trend
line is always fit in uncorrected-offset space: stepping the clock or
trimming its frequency shifts subsequent raw measurements, and adding
the accumulated compensation back recovers the underlying linear drift
the filter needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, List, Optional

from repro.clock.discipline_api import ClockCorrector
from repro.core.config import MntpConfig
from repro.core.events import MntpEventKind
from repro.core.falsetickers import reject_false_tickers
from repro.core.filter import OffsetFilter
from repro.core.thresholds import failing_conditions, favorable_snr_condition
from repro.ntp.sntp_client import SntpClient, SntpResult
from repro.obs.spans import Span
from repro.simcore.simulator import Simulator
from repro.wireless.hints import HintProvider

#: Bucket bounds (milliseconds) for the filter-residual histogram.
_RESIDUAL_MS_BUCKETS = (0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 250.0, 1000.0)


class MntpPhase(Enum):
    """Which part of Algorithm 1 is executing."""

    WARMUP = "warmup"
    REGULAR = "regular"
    STOPPED = "stopped"


@dataclass
class MntpReport:
    """One reported (post-filter) MNTP offset.

    Attributes:
        time: Virtual time of the measurement (archived as ``t``).
        offset: Raw measured offset (server - local), seconds (archived
            as ``o``).
        accepted: Whether the filter accepted it.
        phase: Phase during which it was measured.
        corrected: Whether a clock correction was applied on it.
    """

    time: float = field(metadata={"json": "t"})
    offset: float = field(metadata={"json": "o"})
    accepted: bool
    phase: MntpPhase
    corrected: bool = False
    #: Residual against the trend line's prediction at measurement time
    #: (uncorrected space) — the paper's "clock corrected drift value".
    #: None while the filter is still bootstrapping.
    residual: Optional[float] = None
    #: Ground-truth clock offset at measurement time, stamped by the
    #: experiment harness (None outside a harness).
    truth: Optional[float] = None


class _Compensation:
    """Piecewise-linear record of corrections MNTP has applied.

    ``value(t)`` is the total offset (seconds) by which raw measurements
    at time ``t`` differ from the uncorrected clock's trajectory.
    """

    def __init__(self, start_time: float) -> None:
        self._accum = 0.0
        self._rate = 0.0
        self._last_t = start_time

    def _advance(self, t: float) -> None:
        if t > self._last_t:
            self._accum += self._rate * (t - self._last_t)
            self._last_t = t

    def add_step(self, t: float, delta: float) -> None:
        """Record an instantaneous phase correction."""
        self._advance(t)
        self._accum += delta

    def add_rate(self, t: float, delta_rate: float) -> None:
        """Record a frequency trim (seconds/second)."""
        self._advance(t)
        self._rate += delta_rate

    def value(self, t: float) -> float:
        """Total compensation at time ``t``."""
        self._advance(t)
        return self._accum

    def reset(self, t: float) -> None:
        """Forget history (protocol reset keeps the physical corrections
        in place but restarts the bookkeeping in the new epoch)."""
        self._advance(t)
        self._accum = 0.0
        self._rate = 0.0


class Mntp:
    """Runnable MNTP instance bound to a client, hints, and a corrector.

    Args:
        sim: Simulation kernel.
        client: SNTP wire querier (supplies the local clock too).
        hints: Wireless hint source (the only host support MNTP needs).
        corrector: Clock correction sink; disable for measurement-only.
        config: Protocol parameters.
        on_report: Optional callback receiving every :class:`MntpReport`.
    """

    def __init__(
        self,
        sim: Simulator,
        client: SntpClient,
        hints: HintProvider,
        corrector: ClockCorrector,
        config: MntpConfig = MntpConfig(),
        on_report: Optional[Callable[[MntpReport], None]] = None,
    ) -> None:
        self._sim = sim
        self.client = client
        self.hints = hints
        self.corrector = corrector
        self.config = config
        self.on_report = on_report
        self.phase = MntpPhase.STOPPED
        self.filter = OffsetFilter(
            min_samples=config.min_warmup_samples,
            gate_floor=config.filter_gate_floor,
            max_consecutive_rejections=config.max_consecutive_rejections,
            two_sided=config.two_sided_rejection,
            reestimate_every_sample=config.reestimate_every_sample,
        )
        self._comp = _Compensation(sim.now)
        self._algorithm_start = sim.now
        self._phase_start = sim.now
        self.drift_estimate: Optional[float] = None
        self.reports: List[MntpReport] = []
        self.deferral_count = 0
        self.reset_count = 0
        self.step_detections = 0
        # Same-sign residual-breach streak feeding step detection.
        self._step_streak = 0
        self._step_sign = 0
        # Phase epoch: bumped on every phase transition so callbacks
        # scheduled in an abandoned phase (e.g. after a step-recovery
        # reset) expire instead of double-driving the state machine.
        self._phase_epoch = 0
        self._running = False
        self._phase_span: Optional[Span] = None
        metrics = sim.telemetry.metrics
        self._drift_gauge = metrics.gauge(
            "mntp_drift_estimate_ppm", "latest trend-line drift estimate"
        )
        self._residual_hist = metrics.histogram(
            "mntp_abs_residual_ms",
            "absolute filter residual of each offered offset",
            buckets=_RESIDUAL_MS_BUCKETS,
        )
        # Precomputed per-event counter names: _emit runs once per
        # protocol event, where an f-string per event is real cost.
        self._counter_names = {
            kind: f"mntp_{kind.value}_total" for kind in MntpEventKind
        }

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Begin Algorithm 1 at step 1."""
        self._running = True
        self._enter_warmup(initial=True)

    def stop(self) -> None:
        """Halt after any in-flight round."""
        self._running = False
        self.phase = MntpPhase.STOPPED
        self._close_phase_span()

    def _emit(self, kind: MntpEventKind, **data) -> None:
        telemetry = self._sim.telemetry
        telemetry.emit(self._sim.now, "mntp", kind.value, **data)
        telemetry.count(self._counter_names[kind])

    def _open_phase_span(self, name: str, **attrs) -> None:
        self._close_phase_span()
        self._phase_span = self._sim.telemetry.spans.begin(name, **attrs)

    def _close_phase_span(self) -> None:
        if self._phase_span is not None:
            self._phase_span.end()
            self._phase_span = None

    # -- reset / phase transitions --------------------------------------------

    def _guarded(self, fn: Callable[[], None]) -> Callable[[], None]:
        """Bind ``fn`` to the current phase epoch.

        The wrapper is a no-op once the protocol has moved on to a new
        phase (or stopped), so continuations scheduled before a
        step-recovery reset cannot fire alongside the new phase's own
        loop.
        """
        epoch = self._phase_epoch

        def run() -> None:
            if self._running and epoch == self._phase_epoch:
                fn()

        return run

    def _enter_warmup(self, initial: bool = False) -> None:
        self.phase = MntpPhase.WARMUP
        self._phase_epoch += 1
        self._step_streak = 0
        self._step_sign = 0
        self._algorithm_start = self._sim.now
        self._phase_start = self._sim.now
        if not initial:
            self.reset_count += 1
            self.filter.reset()
            self._comp.reset(self._sim.now)
            self.drift_estimate = None
            self._emit(MntpEventKind.RESET)
        self._open_phase_span("mntp.warmup", reset_count=self.reset_count)
        self._sim.call_after(0.0, self._guarded(self._warmup_round), label="mntp:warmup")

    def _enter_regular(self) -> None:
        self.phase = MntpPhase.REGULAR
        self._phase_epoch += 1
        self._step_streak = 0
        self._step_sign = 0
        self._phase_start = self._sim.now
        self._open_phase_span("mntp.regular")
        self.drift_estimate = self.filter.drift_estimate()
        self._emit(MntpEventKind.WARMUP_COMPLETE, drift=self.drift_estimate)
        if self.drift_estimate is not None:
            self._drift_gauge.set(self.drift_estimate * 1e6)
            self._emit(MntpEventKind.DRIFT_ESTIMATED, drift=self.drift_estimate)
            if self.config.enable_drift_correction:
                # Trend slope s means the local clock's skew is -s
                # (offset = server - local); cancel it.  Clamp to a
                # crystal-plausible magnitude so a warm-up poisoned by a
                # channel burst cannot run the clock away.
                cap = self.config.max_drift_correction_ppm * 1e-6
                applied = max(-cap, min(cap, self.drift_estimate))
                action = self.corrector.apply_frequency(-applied)
                if action != "noop":
                    self._comp.add_rate(self._sim.now, applied)
                self._emit(MntpEventKind.DRIFT_CORRECTED, drift=applied)
        self._sim.call_after(0.0, self._guarded(self._regular_round), label="mntp:regular")

    def _reset_due(self) -> bool:
        return self._sim.now - self._algorithm_start >= self.config.reset_period

    # -- the hint gate ----------------------------------------------------------

    def _gate_then(self, action: Callable[[], None], wait_span: Optional[Span] = None) -> None:
        """Run ``action`` once the channel is favorable (Algorithm 1's
        ``wait(favorableSNRCondition())``)."""
        if not self.config.enable_hint_gate:
            action()
            return
        reading = self.hints.read_hints()
        if favorable_snr_condition(reading, self.config.thresholds):
            if wait_span is not None:
                wait_span.end()
            action()
            return
        self.deferral_count += 1
        self._emit(
            MntpEventKind.DEFERRED,
            rssi=reading.rssi_dbm,
            noise=reading.noise_dbm,
            snr_margin=reading.snr_margin_db,
            failing=failing_conditions(reading, self.config.thresholds),
        )
        if wait_span is None:
            wait_span = self._sim.telemetry.spans.begin(
                "mntp.gate_wait", phase=self.phase.value
            )
        self._sim.call_after(
            self.config.hint_poll_interval,
            lambda: self._gate_then(action, wait_span),
            label="mntp:gate",
        )

    # -- warm-up phase ------------------------------------------------------------

    def _warmup_round(self) -> None:
        if not self._running:
            return
        if self._sim.now - self._phase_start >= self.config.warmup_period:
            self._enter_regular()
            return
        self._gate_then(self._guarded(self._warmup_query))

    def _warmup_query(self) -> None:
        if not self._running:
            return
        pools = list(self.config.warmup_pools)
        results: Dict[str, Optional[SntpResult]] = {}
        outstanding = {"count": len(pools)}
        epoch = self._phase_epoch
        self._emit(MntpEventKind.QUERY_SENT, phase="warmup", sources=pools)

        def make_cb(pool: str):
            def on_result(result: SntpResult) -> None:
                results[pool] = result
                outstanding["count"] -= 1
                if outstanding["count"] == 0:
                    # Results landing after a phase transition belong
                    # to an abandoned round; don't feed the new filter.
                    if epoch == self._phase_epoch:
                        self._warmup_collect(results)

            return on_result

        for pool in pools:
            self.client.query(
                pool, make_cb(pool), timeout=self.config.query_timeout
            )

    def _warmup_collect(self, results: Dict[str, Optional[SntpResult]]) -> None:
        if not self._running:
            return
        offsets: Dict[str, float] = {}
        for pool, result in results.items():
            if result is not None and result.ok:
                assert result.sample is not None
                offsets[pool] = result.sample.offset
        if not offsets:
            self._emit(MntpEventKind.QUERY_FAILED, phase="warmup")
            self._schedule(
                self.config.warmup_wait_time,
                self._guarded(self._warmup_round), "mntp:warmup",
            )
            return
        verdict = reject_false_tickers(offsets)
        for source in verdict.rejected:
            self._emit(
                MntpEventKind.FALSE_TICKER, source=source, offset=offsets[source]
            )
        epoch = self._phase_epoch
        self._handle_offset(verdict.combined_offset, correct=False)
        if epoch == self._phase_epoch:
            self._schedule(
                self.config.warmup_wait_time,
                self._guarded(self._warmup_round), "mntp:warmup",
            )

    # -- regular phase ---------------------------------------------------------------

    def _regular_round(self) -> None:
        if not self._running:
            return
        if self._reset_due():
            self._enter_warmup()
            return
        self._gate_then(self._guarded(self._regular_query))

    def _regular_query(self) -> None:
        if not self._running:
            return
        source = self.config.regular_source
        epoch = self._phase_epoch
        self._emit(MntpEventKind.QUERY_SENT, phase="regular", sources=[source])

        def on_result(result: SntpResult) -> None:
            if not self._running or epoch != self._phase_epoch:
                return
            if result.ok:
                assert result.sample is not None
                self._handle_offset(
                    result.sample.offset,
                    correct=self.config.enable_clock_correction,
                )
            else:
                self._emit(MntpEventKind.QUERY_FAILED, phase="regular")
            if epoch == self._phase_epoch:
                self._schedule(
                    self.config.regular_wait_time,
                    self._guarded(self._regular_round), "mntp:regular",
                )

        self.client.query(source, on_result, timeout=self.config.query_timeout)

    # -- shared offset handling ---------------------------------------------------------

    def _handle_offset(self, offset: float, correct: bool) -> None:
        now = self._sim.now
        uncorrected = offset + self._comp.value(now)
        if self.config.enable_filter:
            outcome = self.filter.offer(now, uncorrected)
            accepted = outcome.decision.accepted
        else:
            self.filter.trend.add(now, uncorrected)
            accepted = True
            outcome = None
        residual = None
        if outcome is not None and outcome.predicted == outcome.predicted:  # not NaN
            residual = uncorrected - outcome.predicted
            self._residual_hist.observe(abs(residual) * 1000.0)
        report = MntpReport(
            time=now, offset=offset, accepted=accepted, phase=self.phase,
            residual=residual,
        )
        if accepted:
            self._step_streak = 0
            self._step_sign = 0
            if self.config.reestimate_every_sample:
                self.drift_estimate = self.filter.drift_estimate()
            if correct:
                action = self.corrector.apply_offset_step(offset)
                if action != "noop":
                    self._comp.add_step(now, offset)
                    report.corrected = True
                    self._emit(MntpEventKind.CLOCK_CORRECTED, offset=offset)
            self._emit(
                MntpEventKind.OFFSET_ACCEPTED,
                offset=offset,
                uncorrected=uncorrected,
                phase=self.phase.value,
            )
        else:
            assert outcome is not None
            self._emit(
                MntpEventKind.OFFSET_REJECTED,
                offset=offset,
                uncorrected=uncorrected,
                predicted=outcome.predicted,
                squared_error=outcome.squared_error,
                gate=outcome.gate,
                phase=self.phase.value,
            )
            self._note_rejection(residual)
        self.reports.append(report)
        if self.on_report is not None:
            self.on_report(report)

    def _note_rejection(self, residual: Optional[float]) -> None:
        """Feed a filter rejection into step detection.

        An upstream clock step shifts every subsequent measurement by
        the step, so the trend-line filter rejects a run of samples
        whose residuals all breach the gate *with the same sign*.
        Detecting that streak and re-entering warm-up (with the usual
        filter/compensation reset) re-acquires the stepped timescale in
        one warm-up period instead of stonewalling until the scheduled
        protocol reset.
        """
        if not self.config.enable_step_recovery:
            return
        if residual is None or abs(residual) < self.config.step_recovery_min_residual:
            self._step_streak = 0
            self._step_sign = 0
            return
        sign = 1 if residual > 0 else -1
        if sign == self._step_sign:
            self._step_streak += 1
        else:
            self._step_sign = sign
            self._step_streak = 1
        if self._step_streak < self.config.step_recovery_rejections:
            return
        self.step_detections += 1
        self._emit(
            MntpEventKind.STEP_DETECTED,
            residual=residual,
            streak=self._step_streak,
            phase=self.phase.value,
        )
        self._enter_warmup()

    def _schedule(self, delay: float, fn: Callable[[], None], label: str) -> None:
        if self._running:
            self._sim.call_after(delay, fn, label)

    # -- convenience accessors ----------------------------------------------------

    def accepted_offsets(self) -> List[MntpReport]:
        """Reports the filter accepted."""
        return [r for r in self.reports if r.accepted]

    def rejected_offsets(self) -> List[MntpReport]:
        """Reports the filter rejected."""
        return [r for r in self.reports if not r.accepted]
