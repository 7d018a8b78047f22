#!/usr/bin/env python3
"""Quickstart: SNTP vs MNTP on a hostile wireless channel.

Runs the paper's head-to-head comparison (§5.1) on the simulated
testbed: an unmodified SNTP client and MNTP side by side on the same
drifting laptop clock behind a degraded 802.11 hop, polling every 5
seconds for one simulated hour (a couple of wall-clock seconds).

Usage::

    python examples/quickstart.py [seed]
"""

import sys

from repro.reporting.series import render_series
from repro.testbed.specs import run_scenario


def main() -> None:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 1
    print("Running one simulated hour of SNTP vs MNTP (wireless, ntpd on)...")
    result = run_scenario("mntp_wireless_corrected", seed=seed)

    sntp = result.sntp_error_stats()
    mntp = result.mntp_error_stats()
    print()
    print(f"SNTP : {sntp.count:4d} samples  "
          f"mean |err| {sntp.mean_abs * 1000:6.1f} ms  "
          f"max {sntp.max_abs * 1000:7.1f} ms")
    print(f"MNTP : {mntp.count:4d} accepted "
          f"mean |err| {mntp.mean_abs * 1000:6.1f} ms  "
          f"max {mntp.max_abs * 1000:7.1f} ms")
    print(f"MNTP rejected {len(result.mntp_rejected())} outlier offsets "
          f"and is {result.improvement_factor():.1f}x more accurate.")
    print()
    print(render_series([p.error for p in result.sntp], label="SNTP |error|"))
    print(render_series(
        [p.error for p in result.mntp_accepted()], label="MNTP |error|"
    ))
    print()
    print("The paper reports a 12-fold improvement in this setting (Fig. 6).")


if __name__ == "__main__":
    main()
