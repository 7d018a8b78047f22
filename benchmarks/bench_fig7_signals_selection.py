"""Figure 7 — signals and selection plot.

For the Figure-6 run (``scenarios/mntp_wireless_corrected.json``),
reproduces the wireless hints (RSSI, noise, SNR margin) alongside
MNTP's decisions: deferrals (gate), acceptances, and rejections, with
the failing threshold attributed to each deferral.
"""

from collections import Counter

from repro.reporting.series import render_series
from repro.reporting.tables import render_table
from repro.testbed.specs import load_scenario

SEED = 1


def bench_fig7_signals_selection(once, report):
    def run():
        runner = load_scenario("mntp_wireless_corrected").build_runner(seed=SEED)
        runner.run()
        return runner

    runner = once(run)
    trace = runner.sim.trace

    # Filtered queries over the shared log (one pass per kind).
    deferred = trace.select(component="mntp", kind="deferred")
    accepted = trace.select(component="mntp", kind="offset_accepted")
    rejected = trace.select(component="mntp", kind="offset_rejected")
    failing = Counter()
    for record in deferred:
        for reason in record.data["failing"]:
            failing[reason] += 1

    rssi = [r.data["rssi"] for r in deferred]
    snr = [r.data["snr_margin"] for r in deferred]

    # Sample the channel's hint trajectory at the deferral instants plus
    # accepted instants for the signal panels.
    report(
        "FIGURE 7 — signals and selection\n\n"
        + render_table(
            ["decision", "count"],
            [
                ["requests deferred (gate)", len(deferred)],
                ["offsets accepted", len(accepted)],
                ["offsets rejected (filter)", len(rejected)],
            ],
        )
        + "\n\nthreshold attribution of deferrals: "
        + ", ".join(f"{k}={v}" for k, v in failing.most_common())
        + "\n\n"
        + render_series(rssi, label="RSSI at deferrals (|dBm|)", unit_scale=1.0,
                        unit="dB")
        + "\n"
        + render_series(snr, label="SNR margin at deferrals", unit_scale=1.0,
                        unit="dB")
    )

    assert deferred, "the gate must fire under the degraded channel"
    assert accepted and rejected
    # Two half-open windows partition the run's deferrals.
    first_half = len(trace.select(component="mntp", kind="deferred", t0=0.0, t1=1800.0))
    second_half = len(trace.select(component="mntp", kind="deferred",
                                   t0=1800.0, t1=3600.0 + 1.0))
    assert first_half + second_half == len(deferred)
    # Every deferral names at least one violated threshold.
    assert all(r.data["failing"] for r in deferred)
    # Deferral instants really had unfavorable hints.
    from repro.core.config import HintThresholds
    from repro.core.thresholds import favorable_snr_condition
    from repro.wireless.hints import WirelessHints

    thresholds = HintThresholds()
    for record in deferred[:200]:
        hints = WirelessHints(rssi_dbm=record.data["rssi"],
                              noise_dbm=record.data["noise"])
        assert not favorable_snr_condition(hints, thresholds)
