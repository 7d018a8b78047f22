"""Extension E7 — stability vs accuracy (Allan deviation) per regime.

Characterises the TN clock with the standard oscillator-stability
statistic: overlapping Allan deviation of the true offset series,
free-running vs ntpd-disciplined vs MNTP-steered.

The textbook trade-off appears exactly as theory predicts: the
free-running crystal is extremely *stable* (ADEV ~1e-8; a constant
frequency error is invisible to the second difference) while drifting
hundreds of ms wrong; the steered clocks accept correction-step noise
(ADEV ~1e-5..1e-4) in exchange for staying *accurate* to a global
timescale.  Synchronization buys accuracy at the price of stability —
which is the right trade for the paper's applications.
"""

import numpy as np

from repro.core.config import MntpConfig
from repro.metrics.allan import allan_deviation_curve
from repro.reporting.tables import render_table
from repro.testbed.experiment import ExperimentRunner
from repro.testbed.nodes import TestbedOptions

SEED = 1
DURATION = 4 * 3600.0
CADENCE = 10.0  # truth sampling period (tau0)


def _truth_series(ntp_correction: bool, mntp: bool):
    runner = ExperimentRunner(
        seed=SEED,
        options=TestbedOptions(wireless=True, ntp_correction=ntp_correction),
        duration=DURATION,
        sntp_cadence=CADENCE,
        run_sntp=False,
        mntp_config=(
            MntpConfig(
                warmup_period=1800.0, warmup_wait_time=15.0,
                regular_wait_time=300.0, reset_period=DURATION * 2,
            )
            if mntp else None
        ),
    )
    result = runner.run()
    return [p.offset for p in result.true_offsets]


def bench_ext_allan_stability(once, report):
    def run():
        return {
            "free-running": _truth_series(ntp_correction=False, mntp=False),
            "ntpd": _truth_series(ntp_correction=True, mntp=False),
            "MNTP": _truth_series(ntp_correction=False, mntp=True),
        }

    series = once(run)

    curves = {
        name: dict(allan_deviation_curve(phase, CADENCE, max_points=9))
        for name, phase in series.items()
    }
    taus = sorted(set().union(*[c.keys() for c in curves.values()]))
    rows = []
    for tau in taus:
        rows.append([f"{tau:.0f}"] + [
            f"{curves[name][tau]:.2e}" if tau in curves[name] else "-"
            for name in ("free-running", "ntpd", "MNTP")
        ])
    accuracy_rows = [
        [name, f"{np.abs(phase).mean() * 1000:.1f}",
         f"{np.abs(phase).max() * 1000:.1f}"]
        for name, phase in series.items()
    ]
    report(
        "EXTENSION E7 — stability (ADEV) vs accuracy per regime\n\n"
        + render_table(["tau (s)", "free-running", "ntpd", "MNTP"], rows)
        + "\n\n"
        + render_table(["regime", "mean |offset| (ms)", "max (ms)"],
                       accuracy_rows)
        + "\n\nthe free-running crystal is stable but wrong; steering "
        "trades ADEV for time accuracy"
    )

    free_phase = np.abs(series["free-running"])
    ntpd_phase = np.abs(series["ntpd"])
    mntp_phase = np.abs(series["MNTP"])
    # Stability: the free-running clock has by far the lowest ADEV at
    # every tau (constant skew is invisible to the second difference).
    for tau in taus:
        assert curves["free-running"][tau] < curves["ntpd"][tau]
        assert curves["free-running"][tau] < curves["MNTP"][tau]
    # Accuracy: both steered regimes hold the clock 5x+ closer to true
    # time than free-running drift.
    assert ntpd_phase.max() < free_phase.max() / 5
    assert mntp_phase.max() < free_phase.max() / 2
    assert mntp_phase.mean() < free_phase.mean() / 3
