"""Extension E6 — 24-hour in-situ MNTP deployment.

The paper's §7: "longer-term in situ experiments in order to evaluate
... MNTP's effectiveness in day-to-day operation."  A free-running
laptop clock is steered by MNTP alone (clock + drift correction on,
Table-2-config-1-class pacing: 30 min warm-up, 15 min regular rounds,
4 h resets) for a full simulated day with diurnal temperature and
round-the-clock channel hostility.
"""

import numpy as np

from repro.reporting.series import render_series
from repro.reporting.tables import render_table
from repro.testbed.specs import run_scenario

SEED = 1


def bench_ext_insitu_day(once, report):
    def run():
        return run_scenario("mntp_insitu_24h", seed=SEED)

    result = once(run)
    truth = np.array([p.offset for p in result.true_offsets])
    abs_truth = np.abs(truth)
    mntp_err = result.mntp_error_stats()
    corrections = sum(1 for r in result.mntp_reports if r.corrected)

    report(
        "EXTENSION E6 — 24 h in-situ MNTP deployment "
        "(free-running clock, MNTP-only steering)\n\n"
        + render_table(
            ["quantity", "value"],
            [
                ["clock |offset| mean", f"{abs_truth.mean() * 1000:.1f} ms"],
                ["clock |offset| p95", f"{np.percentile(abs_truth, 95) * 1000:.1f} ms"],
                ["clock |offset| max", f"{abs_truth.max() * 1000:.1f} ms"],
                ["MNTP measurement error (mean)", f"{mntp_err.mean_abs * 1000:.1f} ms"],
                ["accepted / rejected offsets",
                 f"{mntp_err.count} / {len(result.mntp_rejected())}"],
                ["clock corrections applied", corrections],
                ["algorithm resets", "6 (4 h reset period)"],
            ],
        )
        + "\n\n"
        + render_series(list(truth), label="clock offset over 24 h")
        + "\n\nfor scale: the same clock free-running drifts past 1.4 s "
        "in 24 h at its ~17 ppm skew"
    )

    # The steered clock stays bounded all day...
    assert abs_truth.mean() < 0.060
    assert abs_truth.max() < 0.400
    # ...whereas unsteered it would drift to seconds (17 ppm * 86400 s).
    assert abs_truth.max() < 0.3 * 17e-6 * 86_400
    # Corrections happened throughout the day, not just at the start.
    times = [r.time for r in result.mntp_reports if r.corrected]
    assert times and max(times) > 20 * 3600.0
    # The filter kept rejecting channel junk all day.
    assert len(result.mntp_rejected()) > 20
