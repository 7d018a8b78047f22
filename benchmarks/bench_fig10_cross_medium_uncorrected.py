"""Figure 10 — SNTP on *wired* vs MNTP on *wireless*, free-running.

The uncorrected cross-medium comparison: both clocks drift; wired SNTP
reports the drift plus queueing noise (paper: up to ~50 ms over the
hour), MNTP on wireless tracks its own drift trend with small
residuals.
"""

from repro.reporting.series import render_series
from repro.reporting.tables import render_table
from repro.testbed.specs import run_scenario

SEED = 1


def bench_fig10_cross_medium_uncorrected(once, report):
    def run():
        wired = run_scenario("wired_uncorrected", seed=SEED)
        mntp = run_scenario("mntp_wireless_uncorrected", seed=SEED)
        return wired, mntp

    wired, mntp_run = once(run)
    sntp_err = wired.sntp_error_stats()
    mntp_err = mntp_run.mntp_error_stats()
    residuals = [abs(p.offset) for p in mntp_run.mntp_corrected_drift()]

    report(
        "FIGURE 10 — wired SNTP vs wireless MNTP (no clock correction)\n\n"
        + render_table(
            ["series", "n", "mean |err| (ms)", "max (ms)"],
            [
                ["SNTP on wired (error vs truth)", sntp_err.count,
                 f"{sntp_err.mean_abs * 1000:.1f}",
                 f"{sntp_err.max_abs * 1000:.1f}"],
                ["MNTP on wireless (error vs truth)", mntp_err.count,
                 f"{mntp_err.mean_abs * 1000:.1f}",
                 f"{mntp_err.max_abs * 1000:.1f}"],
            ],
        )
        + "\n\n"
        + render_series([p.offset for p in wired.sntp],
                        label="wired SNTP offsets (drift visible)")
        + "\n"
        + render_series([p.offset for p in mntp_run.mntp_accepted()],
                        label="wireless MNTP offsets (drift tracked)")
    )

    # Wired uncorrected SNTP shows the drift ramp (tens of ms, paper ~50).
    assert 0.01 < wired.sntp_stats().max_abs < 0.3
    # MNTP's accepted samples measure the drifting clock accurately.
    assert mntp_err.mean_abs < 0.015
    assert residuals and sum(residuals) / len(residuals) < 0.010
