"""Figure 6 — SNTP vs MNTP offsets, wireless, NTP correction on.

The §5.1 head-to-head: both protocols poll every 5 s for one hour on
the same ntpd-disciplined clock behind the degraded wireless hop; MNTP
runs with drift/clock correction off (measurement-only).  Paper: SNTP
up to 292 ms; MNTP max 23 ms — a 12-fold improvement; all outliers are
rejected by the filter.
"""

from repro.reporting.series import render_series
from repro.reporting.tables import render_table
from repro.testbed.specs import run_scenario

SEED = 1


def bench_fig6_mntp_vs_sntp_corrected(once, report):
    def run():
        return run_scenario("mntp_wireless_corrected", seed=SEED)

    result = once(run)
    sntp = result.sntp_error_stats()
    mntp = result.mntp_error_stats()
    rejected = result.mntp_rejected()

    report(
        "FIGURE 6 — SNTP vs MNTP on wireless with NTP clock correction\n\n"
        + render_table(
            ["series", "n", "mean |err| (ms)", "std (ms)", "max (ms)"],
            [
                ["SNTP", sntp.count, f"{sntp.mean_abs * 1000:.1f}",
                 f"{sntp.std_abs * 1000:.1f}", f"{sntp.max_abs * 1000:.1f}"],
                ["MNTP (accepted)", mntp.count, f"{mntp.mean_abs * 1000:.1f}",
                 f"{mntp.std_abs * 1000:.1f}", f"{mntp.max_abs * 1000:.1f}"],
                ["MNTP (rejected)", len(rejected), "-", "-",
                 f"{max((abs(p.offset) for p in rejected), default=0) * 1000:.1f}"],
            ],
        )
        + f"\n\nimprovement factor: {result.improvement_factor():.1f}x "
        "(paper: 12x)\n\n"
        + render_series([p.error for p in result.sntp], label="SNTP error")
        + "\n"
        + render_series([p.error for p in result.mntp_accepted()],
                        label="MNTP error")
    )

    assert result.improvement_factor() > 5.0
    assert mntp.mean_abs < 0.010
    assert sntp.max_abs > 0.2
    assert rejected  # the filter discarded outliers
    # Rejected offsets are the large ones (mean rejected >> mean accepted).
    mean_rejected = sum(abs(p.offset) for p in rejected) / len(rejected)
    assert mean_rejected > 3 * result.mntp_stats().mean_abs
