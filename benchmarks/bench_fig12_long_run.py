"""Figure 12 — 4-hour SNTP vs MNTP on wireless, free-running clock.

The §5.2 longer experiment: 5 s cadence for 4 hours with the clock
allowed to drift and MNTP's drift estimation active.  Paper: SNTP as
high as 392 ms; MNTP's clock-corrected drift values always < 20 ms.
"""

from repro.reporting.series import render_series
from repro.reporting.tables import render_table
from repro.testbed.specs import run_scenario

SEED = 1


def bench_fig12_long_run(once, report):
    def run():
        return run_scenario("mntp_longrun", seed=SEED)

    result = once(run)
    sntp = result.sntp_stats()
    sntp_err = result.sntp_error_stats()
    mntp_err = result.mntp_error_stats()
    residuals = [abs(p.offset) for p in result.mntp_corrected_drift()]
    mean_resid = sum(residuals) / max(1, len(residuals))
    max_resid = max(residuals, default=0.0)

    report(
        "FIGURE 12 — 4-hour SNTP vs MNTP, wireless, free-running clock\n\n"
        + render_table(
            ["series", "n", "mean (ms)", "max (ms)"],
            [
                ["SNTP raw offsets", sntp.count,
                 f"{sntp.mean_abs * 1000:.1f}", f"{sntp.max_abs * 1000:.1f}"],
                ["SNTP error vs truth", sntp_err.count,
                 f"{sntp_err.mean_abs * 1000:.1f}",
                 f"{sntp_err.max_abs * 1000:.1f}"],
                ["MNTP error vs truth", mntp_err.count,
                 f"{mntp_err.mean_abs * 1000:.1f}",
                 f"{mntp_err.max_abs * 1000:.1f}"],
                ["MNTP corrected drift values", len(residuals),
                 f"{mean_resid * 1000:.1f}", f"{max_resid * 1000:.1f}"],
            ],
        )
        + "\n\n"
        + render_series([p.offset for p in result.sntp],
                        label="SNTP offsets (4 h)")
        + "\n"
        + render_series([p.offset for p in result.mntp_accepted()],
                        label="MNTP offsets (4 h)")
        + "\n"
        + render_series([p.offset for p in result.mntp_corrected_drift()],
                        label="MNTP corrected drift")
        + "\n\npaper: SNTP up to 392 ms; MNTP corrected drift < 20 ms"
    )

    # SNTP sees large spikes over 4 h of hostile channel.
    assert sntp.max_abs > 0.3
    # MNTP's corrected drift values stay tight.
    assert mean_resid < 0.010
    assert result.mntp_rejected()  # big offsets were filtered out
    assert result.improvement_factor() > 5.0
