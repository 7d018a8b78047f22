"""Ablation A3 — sensitivity to the hint-gate thresholds.

The paper's -75/-70/20 dB thresholds "emerged through an iterative
process"; this ablation sweeps the SNR-margin gate from permissive to
strict in the Figure-6 setting and reports the accuracy/requests
trade-off (stricter gate -> fewer but cleaner samples).
"""

from repro.core.config import HintThresholds, MntpConfig
from repro.reporting.tables import render_table
from repro.testbed.experiment import ExperimentRunner
from repro.testbed.nodes import TestbedOptions

SEED = 1

#: (label, min_rssi, max_noise, min_snr_margin)
SWEEP = (
    ("no gate", -1000.0, 1000.0, -1000.0),
    ("permissive (10 dB)", -85.0, -60.0, 10.0),
    ("paper (-75/-70/20 dB)", -75.0, -70.0, 20.0),
    ("strict (28 dB)", -70.0, -75.0, 28.0),
)


def _run(thresholds):
    config = MntpConfig.baseline_headtohead().with_overrides(
        thresholds=thresholds
    )
    runner = ExperimentRunner(
        seed=SEED,
        options=TestbedOptions(wireless=True, ntp_correction=True),
        duration=3600.0,
        run_sntp=False,
        mntp_config=config,
    )
    result = runner.run()
    deferrals = runner.mntp.deferral_count
    return result, deferrals


def bench_ablation_thresholds(once, report):
    def run():
        return {
            label: _run(HintThresholds(
                min_rssi_dbm=rssi, max_noise_dbm=noise, min_snr_margin_db=snr,
            ))
            for label, rssi, noise, snr in SWEEP
        }

    results = once(run)

    rows = []
    stats = {}
    for label, _, _, _ in SWEEP:
        result, deferrals = results[label]
        err = result.mntp_error_stats()
        stats[label] = (err, deferrals)
        rows.append([
            label, err.count, deferrals,
            f"{err.mean_abs * 1000:.2f}", f"{err.max_abs * 1000:.1f}",
        ])
    report(
        "ABLATION A3 — hint threshold sensitivity (Fig-6 setting)\n\n"
        + render_table(
            ["gate", "accepted", "deferrals", "mean |err| (ms)", "max (ms)"],
            rows,
        )
    )

    no_gate_err, no_gate_defer = stats["no gate"]
    paper_err, paper_defer = stats["paper (-75/-70/20 dB)"]
    strict_err, strict_defer = stats["strict (28 dB)"]
    # The gate actually fires, increasingly with strictness.
    assert no_gate_defer == 0
    assert 0 < paper_defer < strict_defer
    # Stricter gates yield fewer samples.
    assert strict_err.count < no_gate_err.count
    # The paper's gate does not hurt accuracy relative to no gate.
    assert paper_err.mean_abs <= no_gate_err.mean_abs * 1.5
