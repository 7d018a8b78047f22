#!/usr/bin/env python3
"""The §3.3 cellular experiment: SNTP on a 4G phone.

A simulated Galaxy-S4-class phone polls ``0.pool.ntp.org`` over a 4G
RAN whose RRC state machine charges a radio-promotion delay on the
first uplink packet after idle.  A GPS time-sync app keeps the system
clock true, so the large reported SNTP offsets are pure measurement
error from the asymmetric cellular path — Figure 5's result
(mean 192 ms, sd 55 ms, max 840 ms).

Usage::

    python examples/cellular_phone.py [seed]
"""

import sys

from repro.cellular.phone import CellularExperiment, CellularOptions
from repro.reporting.series import render_cdf, render_series


def main() -> None:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 1
    print("Running 3 simulated hours of SNTP on a 4G phone...")
    result = CellularExperiment(seed=seed, options=CellularOptions()).run()
    stats = result.stats()
    print()
    print(f"samples   : {stats.count} ({result.failures} failed)")
    print(f"mean |off|: {stats.mean_abs * 1000:6.1f} ms   (paper: 192 ms)")
    print(f"std  |off|: {stats.std_abs * 1000:6.1f} ms   (paper:  55 ms)")
    print(f"max  |off|: {stats.max_abs * 1000:6.1f} ms   (paper: 840 ms)")
    print(f"radio promotions paid: {result.promotions} "
          f"(cadence > RRC inactivity timeout, so nearly every request)")
    print(f"GPS fixes applied    : {result.gps_fixes}")
    print()
    print(render_series([p.offset for p in result.offsets], label="SNTP offset"))
    print(render_cdf([p.offset for p in result.offsets], label="offset CDF"))


if __name__ == "__main__":
    main()
