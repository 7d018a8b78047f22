#!/usr/bin/env python3
"""A day in the life of a deployed MNTP device (paper §7 in-situ).

Runs the 24-hour in-situ scenario: a free-running laptop clock steered
only by MNTP (30-min warm-ups, 15-min regular rounds, 4-hour resets)
through diurnal temperature and round-the-clock channel hostility, and
prints where the clock actually was, hour by hour.

Usage::

    python examples/insitu_day.py [seed]
"""

import sys

import numpy as np

from repro.reporting.series import render_series
from repro.reporting.tables import render_table
from repro.testbed.specs import run_scenario


def main() -> None:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 1
    print("Simulating 24 hours of deployed MNTP (a few seconds of wall time)...")
    result = run_scenario("mntp_insitu_24h", seed=seed)

    truth = np.array([(p.time, p.offset) for p in result.true_offsets])
    rows = []
    for hour in range(0, 24, 3):
        window = truth[(truth[:, 0] >= hour * 3600)
                       & (truth[:, 0] < (hour + 3) * 3600)]
        offsets = np.abs(window[:, 1])
        rows.append([f"{hour:02d}:00-{hour + 3:02d}:00",
                     f"{offsets.mean() * 1000:.1f}",
                     f"{offsets.max() * 1000:.1f}"])
    print()
    print(render_table(["window", "mean |offset| (ms)", "max (ms)"], rows))

    corrections = sum(1 for r in result.mntp_reports if r.corrected)
    rejected = len(result.mntp_rejected())
    all_abs = np.abs(truth[:, 1])
    print()
    print(render_series(list(truth[:, 1]), label="clock offset (24 h)"))
    print()
    print(f"day summary: mean |offset| {all_abs.mean() * 1000:.1f} ms, "
          f"max {all_abs.max() * 1000:.1f} ms, "
          f"{corrections} corrections, {rejected} channel outliers rejected.")
    drift_free = 17e-6 * 86_400 * 1000
    print(f"(free-running, this clock would have drifted ~{drift_free:.0f} ms)")


if __name__ == "__main__":
    main()
