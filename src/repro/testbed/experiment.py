"""Experiment runner: SNTP and/or MNTP on one testbed instance.

Reproduces the measurement procedure of §3.2 / §5: the SNTP client
emits a request on a fixed cadence (5 s in the paper) to
``0.pool.ntp.org`` and records the reported offset; MNTP runs alongside
on the same clock and records its reports; the TN's ground-truth offset
is sampled on the same cadence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.clock.discipline_api import ClockCorrector
from repro.core.config import MntpConfig
from repro.core.protocol import Mntp, MntpReport
from repro.ntp.sntp_client import SntpResult
from repro.simcore.simulator import Simulator
from repro.testbed.nodes import Testbed, TestbedOptions


@dataclass(frozen=True)
class OffsetPoint:
    """One time-stamped offset observation (seconds).

    Attributes:
        time: Virtual time of the observation.
        offset: Reported offset (server - local).
        truth: Ground-truth clock offset (local - true) at the same
            instant, when the runner captured it; NaN otherwise.
    """

    time: float
    offset: float
    truth: float = float("nan")

    @property
    def error(self) -> float:
        """Measurement error vs ground truth.

        A perfect report equals ``-truth`` (server clocks are ~true), so
        the error is ``offset + truth``; NaN if truth was not captured.
        """
        return self.offset + self.truth


@dataclass
class SeriesStats:
    """Summary statistics of an offset series (computed on |offset|).

    Attributes:
        count: Number of points.
        mean_abs / std_abs / max_abs: Statistics of absolute offsets.
        rmse: Root mean square of the offsets (vs an expected 0).
    """

    count: int
    mean_abs: float
    std_abs: float
    max_abs: float
    rmse: float

    @classmethod
    def of(cls, series: "List[OffsetPoint]", use_error: bool = False) -> "SeriesStats":
        """Summarise a series (zeros if empty).

        Args:
            series: Points to summarise.
            use_error: Summarise measurement errors vs ground truth
                instead of raw reported offsets (points lacking truth
                are skipped).
        """
        if use_error:
            vals = np.asarray(
                [p.error for p in series if p.truth == p.truth]
            )
        else:
            vals = np.asarray([p.offset for p in series])
        if vals.size == 0:
            return cls(count=0, mean_abs=0.0, std_abs=0.0, max_abs=0.0, rmse=0.0)
        abss = np.abs(vals)
        return cls(
            count=int(vals.size),
            mean_abs=float(abss.mean()),
            std_abs=float(abss.std()),
            max_abs=float(abss.max()),
            rmse=float(math.sqrt((vals**2).mean())),
        )


@dataclass
class ExperimentResult:
    """All series collected from one run.

    Attributes:
        sntp: Offsets reported by the unmodified SNTP client.
        sntp_failures: Count of SNTP queries with no usable response.
        sntp_failure_times: Virtual time of each such failure; None on
            archives written before failure times were recorded.
        mntp_reports: Every MNTP report (accepted and rejected).
        true_offsets: Ground-truth TN clock offsets on the cadence.
        duration: Virtual seconds simulated.
        fault_windows: ``(start, end)`` of every episode of the run's
            fault schedule, in schedule order (an episode may end after
            ``duration``); None on archives written before they were
            recorded.
        telemetry: Frozen :meth:`repro.obs.telemetry.Telemetry.snapshot` of the
            run: metric dicts plus the run's own
            :class:`~repro.simcore.trace.TraceRecord` objects, which a
            loaded archive rebuilds (the dict form of a record exists
            only in JSON); None for results built outside
            :class:`ExperimentRunner`.
        explain: Compact root-cause report embedded by persistence in
            archived runs (see :mod:`repro.obs.explain`); None on live
            results — call :func:`repro.obs.explain.explain_run` on
            ``telemetry`` instead.

    :func:`repro.obs.health.judge_health` judges a run's health from
    these fields after the run.
    """

    sntp: List[OffsetPoint] = field(default_factory=list)
    sntp_failures: int = 0
    sntp_failure_times: Optional[List[float]] = field(default_factory=list)
    mntp_reports: List[MntpReport] = field(default_factory=list)
    true_offsets: List[OffsetPoint] = field(default_factory=list)
    duration: float = 0.0
    fault_windows: Optional[List[Tuple[float, float]]] = field(
        default_factory=list
    )
    telemetry: Optional[Dict[str, Any]] = None
    explain: Optional[Dict[str, Any]] = None

    # -- derived series --------------------------------------------------

    def mntp_accepted(self) -> List[OffsetPoint]:
        """Accepted MNTP offsets as a series."""
        return [
            OffsetPoint(r.time, r.offset, self._truth_of(r))
            for r in self.mntp_reports
            if r.accepted
        ]

    def mntp_rejected(self) -> List[OffsetPoint]:
        """Filter-rejected MNTP offsets as a series."""
        return [
            OffsetPoint(r.time, r.offset, self._truth_of(r))
            for r in self.mntp_reports
            if not r.accepted
        ]

    def _truth_of(self, report: MntpReport) -> float:
        truth = getattr(report, "truth", None)
        return float("nan") if truth is None else truth

    def offset_samples(self) -> List[OffsetPoint]:
        """Every per-exchange offset observation with its ground truth.

        The SNTP series plus regular-phase MNTP reports — the samples
        that correspond one-to-one to a single SNTP exchange and can be
        joined to its causal tree by (time, offset).  Warm-up MNTP
        reports combine several pool exchanges and are excluded.
        """
        points = list(self.sntp)
        points.extend(
            OffsetPoint(r.time, r.offset, self._truth_of(r))
            for r in self.mntp_reports
            if r.phase.value == "regular"
        )
        return points

    def mntp_corrected_drift(self) -> List[OffsetPoint]:
        """The paper's 'clock corrected drift values': residuals of
        accepted offsets against the running trend line."""
        return [
            OffsetPoint(r.time, r.residual)
            for r in self.mntp_reports
            if r.accepted and r.residual is not None
        ]

    def sntp_stats(self) -> SeriesStats:
        """Summary of the SNTP series (raw reported offsets)."""
        return SeriesStats.of(self.sntp)

    def mntp_stats(self) -> SeriesStats:
        """Summary of the accepted-MNTP series (raw reported offsets)."""
        return SeriesStats.of(self.mntp_accepted())

    def sntp_error_stats(self) -> SeriesStats:
        """SNTP measurement errors vs ground truth."""
        return SeriesStats.of(self.sntp, use_error=True)

    def mntp_error_stats(self) -> SeriesStats:
        """Accepted-MNTP measurement errors vs ground truth."""
        return SeriesStats.of(self.mntp_accepted(), use_error=True)

    def improvement_factor(self) -> float:
        """Mean-|error| ratio SNTP/MNTP vs ground truth (the paper's
        '12 times better'); falls back to raw offsets if truth was not
        captured."""
        sntp = self.sntp_error_stats()
        mntp = self.mntp_error_stats()
        if sntp.count == 0 or mntp.count == 0:
            sntp, mntp = self.sntp_stats(), self.mntp_stats()
        if mntp.mean_abs == 0:
            return float("inf") if sntp.mean_abs > 0 else 1.0
        return sntp.mean_abs / mntp.mean_abs


class ExperimentRunner:
    """Configure and execute one experiment.

    Args:
        seed: Root seed for all randomness in the run.
        options: Testbed environment switches.
        duration: Virtual seconds to simulate.
        sntp_cadence: Seconds between SNTP requests (paper: 5 s).
        run_sntp: Whether to run the unmodified SNTP client.
        mntp_config: When given, run MNTP alongside with this config.
        sample_truth: Whether to sample ground-truth clock offsets.
        instrument: ``False`` runs with no-op telemetry (the ``bare``
            leg of ``perfbench/``).
    """

    def __init__(
        self,
        seed: int = 0,
        options: TestbedOptions = TestbedOptions(),
        duration: float = 3600.0,
        sntp_cadence: float = 5.0,
        run_sntp: bool = True,
        mntp_config: Optional[MntpConfig] = None,
        sample_truth: bool = True,
        instrument: bool = True,
    ) -> None:
        if duration <= 0:
            raise ValueError("duration must be positive")
        if sntp_cadence <= 0:
            raise ValueError("cadence must be positive")
        self.seed = seed
        self.options = options
        self.duration = duration
        self.sntp_cadence = sntp_cadence
        self.run_sntp = run_sntp
        self.mntp_config = mntp_config
        self.sample_truth = sample_truth
        self.instrument = instrument
        self.sim: Optional[Simulator] = None
        self.testbed: Optional[Testbed] = None
        self.mntp: Optional[Mntp] = None

    def run(self) -> ExperimentResult:
        """Build the testbed, run the protocols, return the series."""
        sim = Simulator(seed=self.seed, instrument=self.instrument)
        testbed = Testbed(sim, self.options)
        self.sim, self.testbed = sim, testbed
        schedule = self.options.fault_schedule or ()
        result = ExperimentResult(
            duration=self.duration,
            fault_windows=[(e.start, e.end) for e in schedule],
        )

        if self.run_sntp:
            self._start_sntp_loop(sim, testbed, result)
        if self.mntp_config is not None:
            corrector = ClockCorrector(testbed.tn_clock)

            def on_report(report: MntpReport) -> None:
                # Stamp ground truth at report time so error metrics are
                # exact rather than interpolated.
                report.truth = testbed.tn_clock.true_offset()
                result.mntp_reports.append(report)

            self.mntp = Mntp(
                sim=sim,
                client=testbed.mntp_app,
                hints=testbed.hints,
                corrector=corrector,
                config=self.mntp_config,
                on_report=on_report,
            )
            self.mntp.start()
        if self.sample_truth:
            self._start_truth_sampler(sim, testbed, result)

        testbed.start_background()
        sim.run_until(self.duration)
        testbed.stop_background()
        if self.mntp is not None:
            self.mntp.stop()
        # Close spans of work still in flight at the horizon (open
        # exchanges, link transits, interference episodes) so the causal
        # assembler sees every tree the run started.
        sim.telemetry.spans.end_all()
        result.telemetry = sim.telemetry.snapshot()
        return result

    # -- loops -----------------------------------------------------------------

    def _start_sntp_loop(
        self, sim: Simulator, testbed: Testbed, result: ExperimentResult
    ) -> None:
        queries = sim.telemetry.metrics.counter(
            "sntp_queries_total", "SNTP requests issued by the baseline client"
        )
        failures = sim.telemetry.metrics.counter(
            "sntp_query_failures_total",
            "SNTP queries with no usable response (timeout or KoD)",
        )

        failure_times: List[float] = []
        result.sntp_failure_times = failure_times

        def poll() -> None:
            if sim.now >= self.duration:
                return

            def on_result(res: SntpResult) -> None:
                if res.ok:
                    assert res.sample is not None
                    truth = testbed.tn_clock.true_offset()
                    result.sntp.append(
                        OffsetPoint(sim.now, res.sample.offset, truth)
                    )
                else:
                    result.sntp_failures += 1
                    failure_times.append(sim.now)
                    failures.inc()

            queries.inc()
            testbed.sntp_app.query("0.pool.ntp.org", on_result)
            sim.call_after(self.sntp_cadence, poll, label="sntp:poll")

        sim.call_after(0.0, poll, label="sntp:poll")

    def _start_truth_sampler(
        self, sim: Simulator, testbed: Testbed, result: ExperimentResult
    ) -> None:
        def sample() -> None:
            if sim.now >= self.duration:
                return
            result.true_offsets.append(
                OffsetPoint(sim.now, testbed.tn_clock.true_offset())
            )
            sim.call_after(self.sntp_cadence, sample, label="truth:sample")

        sim.call_after(0.0, sample, label="truth:sample")
