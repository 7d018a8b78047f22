"""Extension E4 — network load and battery cost per strategy.

The paper's §7 future work: "perform an exhaustive benchmarking of MNTP
against SNTP and NTP in terms of metrics like processor and battery
performance".  This bench runs the Figure-6 environment and prices each
strategy's actual transmission schedule through the radio power-state
model (tail energy per Balasubramanian et al., which the paper cites),
alongside its accuracy — the full accuracy/energy trade-off:

* SNTP @ 5 s — the paper's measurement cadence;
* MNTP — gated/paced schedule from the same run (3-server warm-up
  rounds share one radio wake-up);
* full NTP (ntpd) — adaptive-poll daemon schedule;
* Android stock policy — one attempt per day.
"""

from repro.core.config import MntpConfig
from repro.energy.accounting import EnergyAccountant
from repro.reporting.tables import render_table
from repro.testbed.experiment import ExperimentRunner
from repro.testbed.nodes import TestbedOptions

SEED = 1
DURATION = 4 * 3600.0


def bench_ext_energy_load(once, report):
    def run():
        runner = ExperimentRunner(
            seed=SEED,
            options=TestbedOptions(wireless=True, ntp_correction=True),
            duration=DURATION,
            mntp_config=MntpConfig.baseline_headtohead().with_overrides(
                # Use realistic paced parameters rather than the 5 s
                # head-to-head cadence, since energy is the question.
                warmup_period=1800.0, warmup_wait_time=15.0,
                regular_wait_time=300.0, reset_period=DURATION * 2,
            ),
        )
        result = runner.run()
        return runner, result

    runner, result = once(run)
    trace = runner.sim.trace
    accountant = EnergyAccountant()

    # SNTP: one exchange per 5 s slot for the full run.
    sntp_times = [p.time for p in result.sntp]
    sntp = accountant.price_schedule("SNTP @5s", sntp_times, DURATION)

    # MNTP: its actual (gated, paced) schedule with per-round fan-out.
    mntp_events = [
        (r.time, len(r.data["sources"]))
        for r in trace.select(component="mntp", kind="query_sent")
    ]
    mntp = accountant.price_events("MNTP", mntp_events, DURATION)

    # ntpd: each poll round queries all four upstreams at one instant.
    ntpd_rounds = {}
    for r in trace.select(component="ntpd", kind="update"):
        ntpd_rounds[round(r.time)] = 4
    ntpd_times = sorted(ntpd_rounds)
    ntpd = accountant.price_events(
        "NTP (ntpd)", [(t, 4) for t in ntpd_times], DURATION
    )

    # Android stock policy: one poll per day -> at most one in 4 h.
    android = accountant.price_schedule("Android stock", [0.0], DURATION)

    mntp_err = result.mntp_error_stats()
    sntp_err = result.sntp_error_stats()
    rows = []
    for rep, err_ms in (
        (sntp, sntp_err.mean_abs * 1000),
        (mntp, mntp_err.mean_abs * 1000),
        (ntpd, None),
        (android, None),
    ):
        rows.append([
            rep.name, rep.requests, rep.bytes_on_wire,
            f"{rep.wakeups_per_hour:.1f}",
            f"{rep.joules_per_hour:.1f}",
            f"{err_ms:.2f}" if err_ms is not None else "-",
        ])
    report(
        "EXTENSION E4 — accuracy vs network load vs battery cost (4 h)\n\n"
        + render_table(
            ["strategy", "requests", "bytes", "wakeups/h", "J/h",
             "mean |err| (ms)"],
            rows,
        )
        + "\n\nntpd's accuracy is the disciplined clock itself "
        "(see Fig. 4); Android's daily poll leaves the clock to drift "
        "freely between polls."
    )

    # MNTP uses far less energy than blind 5 s SNTP polling...
    assert mntp.joules_per_hour < sntp.joules_per_hour / 2
    # ...while being far more accurate.
    assert mntp_err.mean_abs < sntp_err.mean_abs / 3
    # And it stays cheaper than the ntpd daemon's multi-server polling
    # or comparable (both are paced); Android is trivially cheapest.
    assert android.joules_per_hour < mntp.joules_per_hour
    assert mntp.breakdown.promotions < len(sntp_times)
