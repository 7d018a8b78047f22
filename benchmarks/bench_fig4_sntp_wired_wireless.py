"""Figure 4 — SNTP clock offsets: wired vs wireless × correction on/off.

Four one-hour runs at 5 s cadence.  Paper headline numbers: wired
corrected 4±7 ms; wireless corrected 31±47 ms with spikes to ~600 ms;
wireless uncorrected 118±133 ms with spikes to 1.58 s (the uncorrected
magnitudes depend on that laptop's drift rate; the shape targets are
the orderings and the spike scale).
"""

from repro.reporting.series import render_series
from repro.reporting.tables import render_table
from repro.testbed.specs import run_scenario

SEED = 1
CONDITIONS = (
    ("wired_corrected", "wired, NTP correction on"),
    ("wired_uncorrected", "wired, free-running"),
    ("wireless_corrected", "wireless, NTP correction on"),
    ("wireless_uncorrected", "wireless, free-running"),
)


def bench_fig4_sntp_wired_wireless(once, report):
    def run():
        return {name: run_scenario(name, seed=SEED) for name, _ in CONDITIONS}

    results = once(run)

    rows = []
    series_lines = []
    for name, label in CONDITIONS:
        r = results[name]
        s = r.sntp_stats()
        rows.append([
            label, s.count, r.sntp_failures,
            f"{s.mean_abs * 1000:.1f}", f"{s.std_abs * 1000:.1f}",
            f"{s.max_abs * 1000:.1f}",
        ])
        series_lines.append(
            render_series([p.offset for p in r.sntp], label=f"{label:32s}")
        )
    report(
        "FIGURE 4 — SNTP offsets, wired vs wireless, with/without correction\n\n"
        + render_table(
            ["condition", "samples", "failures", "mean |off| (ms)",
             "std (ms)", "max (ms)"], rows,
        )
        + "\n\n" + "\n".join(series_lines)
        + "\n\npaper: wired corrected 4±7 ms; wireless corrected 31±47 ms "
        "(spikes ~600 ms); wireless uncorrected 118±133 ms (spikes ~1.58 s)"
    )

    wired_c = results["wired_corrected"].sntp_stats()
    wired_u = results["wired_uncorrected"].sntp_stats()
    wifi_c = results["wireless_corrected"].sntp_stats()
    wifi_u = results["wireless_uncorrected"].sntp_stats()
    # Wired corrected is tight (single-digit ms).
    assert wired_c.mean_abs < 0.012
    # Wireless is several times worse than wired under correction.
    assert wifi_c.mean_abs > 4 * wired_c.mean_abs
    assert wifi_c.std_abs > 4 * wired_c.std_abs
    # Wireless spikes reach hundreds of ms.
    assert wifi_c.max_abs > 0.3
    assert wifi_u.max_abs > 0.3
    # Removing correction makes things worse on both media.
    assert wired_u.mean_abs > wired_c.mean_abs
    assert wifi_u.mean_abs > wifi_c.mean_abs
    # Paper: wired uncorrected drift reaches ~50 ms in the hour.
    assert 0.01 < wired_u.max_abs < 0.3
