"""Figure 9 — SNTP on *wired* vs MNTP on *wireless*, correction on.

The cross-medium comparison: even with SNTP enjoying a clean wired
path, MNTP on the hostile wireless hop remains competitive.  Paper:
wired SNTP excursions up to ~50 ms; wireless MNTP offsets ~20 ms.
"""

from repro.reporting.series import render_series
from repro.reporting.tables import render_table
from repro.testbed.specs import run_scenario

SEED = 1


def bench_fig9_cross_medium_corrected(once, report):
    def run():
        wired = run_scenario("wired_corrected", seed=SEED, instrument=False)
        mntp = run_scenario("mntp_wireless_corrected", seed=SEED, instrument=False)
        return wired, mntp

    wired, mntp_run = once(run)
    sntp = wired.sntp_error_stats()
    mntp = mntp_run.mntp_error_stats()

    report(
        "FIGURE 9 — wired SNTP vs wireless MNTP (NTP correction on)\n\n"
        + render_table(
            ["series", "n", "mean |err| (ms)", "p99-ish max (ms)"],
            [
                ["SNTP on wired", sntp.count, f"{sntp.mean_abs * 1000:.1f}",
                 f"{sntp.max_abs * 1000:.1f}"],
                ["MNTP on wireless", mntp.count, f"{mntp.mean_abs * 1000:.1f}",
                 f"{mntp.max_abs * 1000:.1f}"],
            ],
        )
        + "\n\n"
        + render_series([p.error for p in wired.sntp], label="wired SNTP")
        + "\n"
        + render_series([p.error for p in mntp_run.mntp_accepted()],
                        label="wireless MNTP")
        + "\n\npaper: wired SNTP reaches ~50 ms; wireless MNTP ~20 ms"
    )

    # MNTP on a hostile wireless channel is at least in the same class
    # as SNTP on a clean wire (the paper shows it strictly better on the
    # excursions; mean-wise the two are close).
    assert mntp.mean_abs < 4 * max(sntp.mean_abs, 0.002)
    assert mntp.mean_abs < 0.012
