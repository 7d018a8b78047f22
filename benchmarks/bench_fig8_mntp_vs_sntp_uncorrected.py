"""Figure 8 — SNTP vs MNTP offsets, wireless, clock free-running.

As Figure 6 but with ntpd off, so the laptop clock drifts throughout.
MNTP's accepted offsets legitimately track the drift trend line; the
paper reports SNTP up to 450 ms while MNTP stays "on average within
4.5 ms of the reference clock" (17x more accurate).
"""

from repro.reporting.series import render_series
from repro.reporting.tables import render_table
from repro.testbed.specs import run_scenario

SEED = 2


def bench_fig8_mntp_vs_sntp_uncorrected(once, report):
    def run():
        return run_scenario("mntp_wireless_uncorrected", seed=SEED, instrument=False)

    result = once(run)
    sntp = result.sntp_error_stats()
    mntp = result.mntp_error_stats()
    residuals = result.mntp_corrected_drift()
    resid_abs = [abs(p.offset) for p in residuals]

    report(
        "FIGURE 8 — SNTP vs MNTP on wireless without NTP clock correction\n\n"
        + render_table(
            ["series", "n", "mean |err| (ms)", "max (ms)"],
            [
                ["SNTP error vs truth", sntp.count,
                 f"{sntp.mean_abs * 1000:.1f}", f"{sntp.max_abs * 1000:.1f}"],
                ["MNTP error vs truth", mntp.count,
                 f"{mntp.mean_abs * 1000:.1f}", f"{mntp.max_abs * 1000:.1f}"],
                ["MNTP residual vs trend line", len(residuals),
                 f"{sum(resid_abs) / max(1, len(resid_abs)) * 1000:.1f}",
                 f"{max(resid_abs, default=0) * 1000:.1f}"],
            ],
        )
        + f"\n\nimprovement factor: {result.improvement_factor():.1f}x "
        "(paper: 17x; paper's 'within 4.5 ms of the reference' is the "
        "trend-line residual row)\n\n"
        + render_series([p.error for p in result.sntp], label="SNTP error")
        + "\n"
        + render_series([p.offset for p in result.mntp_accepted()],
                        label="MNTP offsets (track drift)")
    )

    assert result.improvement_factor() > 5.0
    assert sntp.max_abs > 0.2
    # Accepted offsets hug the drift trend (small residuals).
    mean_resid = sum(resid_abs) / len(resid_abs)
    assert mean_resid < 0.010
    assert mntp.mean_abs < 0.015
