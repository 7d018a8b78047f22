"""Figure 7 — signals and selection plot.

For the Figure-6 run, reproduces the wireless hints (RSSI, noise, SNR
margin) alongside MNTP's decisions: deferrals (gate), acceptances, and
rejections, with the failing threshold attributed to each deferral.
"""

from collections import Counter

from repro.core.config import MntpConfig
from repro.reporting import render_series, render_table
from repro.testbed.experiment import ExperimentRunner
from repro.testbed.nodes import TestbedOptions

SEED = 1


def bench_fig7_signals_selection(once, report):
    def run():
        runner = ExperimentRunner(
            seed=SEED,
            options=TestbedOptions(wireless=True, ntp_correction=True),
            duration=3600.0,
            mntp_config=MntpConfig.baseline_headtohead(),
        )
        runner.run()
        return runner

    runner = once(run)
    trace = runner.sim.trace

    # Filtered iteration over the shared log (one pass per kind, lazy).
    deferred = list(trace.by_kind("deferred", component="mntp"))
    accepted = list(trace.by_kind("offset_accepted", component="mntp"))
    rejected = list(trace.by_kind("offset_rejected", component="mntp"))
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
    # Window slicing partitions the run without re-scanning everything.
    first_half = sum(1 for r in trace.window(0.0, 1800.0)
                     if r.component == "mntp" and r.kind == "deferred")
    second_half = sum(1 for r in trace.window(1800.0, 3600.0 + 1.0)
                      if r.component == "mntp" and r.kind == "deferred")
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
