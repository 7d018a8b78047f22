"""Figure 5 — SNTP clock offsets reported by a mobile host on 4G.

Three simulated hours of SNTP on a phone whose clock is GPS-corrected;
the reported offsets are pure cellular-path measurement error.  Paper:
mean 192 ms, standard deviation 55 ms, max 840 ms.
"""

from repro.cellular.phone import CellularExperiment, CellularOptions
from repro.reporting.series import render_cdf, render_series

SEED = 1


def bench_fig5_cellular(once, report):
    def run():
        return CellularExperiment(seed=SEED, options=CellularOptions()).run()

    result = once(run)
    stats = result.stats()
    report(
        "FIGURE 5 — SNTP offsets on a 4G phone (GPS-corrected clock)\n\n"
        f"samples={stats.count} failures={result.failures} "
        f"promotions={result.promotions} gps_fixes={result.gps_fixes}\n"
        f"mean |off| = {stats.mean_abs * 1000:6.1f} ms   (paper: 192 ms)\n"
        f"std  |off| = {stats.std_abs * 1000:6.1f} ms   (paper:  55 ms)\n"
        f"max  |off| = {stats.max_abs * 1000:6.1f} ms   (paper: 840 ms)\n\n"
        + render_series([p.offset for p in result.offsets], label="offsets")
        + "\n" + render_cdf([p.offset for p in result.offsets], label="CDF")
    )

    assert 0.120 < stats.mean_abs < 0.280
    assert 0.030 < stats.std_abs < 0.110
    assert 0.3 < stats.max_abs < 1.5
    # The GPS baseline held, so the offsets are measurement error.
    truths = [abs(p.truth) for p in result.offsets]
    assert max(truths) < 0.05
    # Positive bias from uplink promotion.
    mean_signed = sum(p.offset for p in result.offsets) / len(result.offsets)
    assert mean_signed > 0.05
