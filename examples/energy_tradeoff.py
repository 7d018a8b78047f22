#!/usr/bin/env python3
"""Accuracy vs battery: the paper's §7 future-work benchmark.

Runs four hours of the wireless testbed and prices each strategy's
transmission schedule through a radio power-state model (promotion /
active / tail, after Balasubramanian et al. IMC'09, cited by the
paper): blind 5 s SNTP polling, MNTP's paced schedule, the ntpd
daemon's adaptive polling, and Android's stock daily poll.

Usage::

    python examples/energy_tradeoff.py [seed]
"""

import sys

from repro.core.config import MntpConfig
from repro.energy.accounting import EnergyAccountant
from repro.reporting.tables import render_table
from repro.testbed.experiment import ExperimentRunner
from repro.testbed.nodes import TestbedOptions

DURATION = 4 * 3600.0


def main() -> None:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 1
    print("Running 4 simulated hours of SNTP + MNTP + ntpd on wireless...")
    runner = ExperimentRunner(
        seed=seed,
        options=TestbedOptions(wireless=True, ntp_correction=True),
        duration=DURATION,
        mntp_config=MntpConfig.baseline_headtohead().with_overrides(
            warmup_period=1800.0, warmup_wait_time=15.0,
            regular_wait_time=300.0, reset_period=DURATION * 2,
        ),
    )
    result = runner.run()
    trace = runner.sim.trace
    accountant = EnergyAccountant()

    sntp = accountant.price_schedule(
        "SNTP @5s", [p.time for p in result.sntp], DURATION
    )
    mntp = accountant.price_events(
        "MNTP",
        [(r.time, len(r.data["sources"]))
         for r in trace.select(component="mntp", kind="query_sent")],
        DURATION,
    )
    ntpd_times = sorted({round(r.time)
                         for r in trace.select(component="ntpd", kind="update")})
    ntpd = accountant.price_events("NTP (ntpd)", [(t, 4) for t in ntpd_times],
                                   DURATION)
    android = accountant.price_schedule("Android stock", [0.0], DURATION)

    sntp_err = result.sntp_error_stats().mean_abs * 1000
    mntp_err = result.mntp_error_stats().mean_abs * 1000
    rows = [
        [r.name, r.requests, f"{r.wakeups_per_hour:.1f}",
         f"{r.joules_per_hour:.1f}", err]
        for r, err in (
            (sntp, f"{sntp_err:.2f}"),
            (mntp, f"{mntp_err:.2f}"),
            (ntpd, "(disciplines the clock)"),
            (android, "(clock drifts for a day)"),
        )
    ]
    print()
    print(render_table(
        ["strategy", "requests", "wakeups/h", "J/h", "mean |err| (ms)"], rows,
    ))
    print()
    print(f"MNTP is {sntp.joules_per_hour / mntp.joules_per_hour:.1f}x cheaper "
          f"than blind SNTP polling and {sntp_err / mntp_err:.1f}x more accurate.")


if __name__ == "__main__":
    main()
