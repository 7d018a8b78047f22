"""Ablation A1 — hint gating vs trend filtering.

The paper credits MNTP's gains to two mechanisms: channel-aware pacing
(the hint gate) and trend-line offset filtering.  This ablation runs
the Figure-8 scenario with each mechanism toggled independently to
separate their contributions.
"""

from repro.core.config import MntpConfig
from repro.reporting.tables import render_table
from repro.testbed.experiment import ExperimentRunner
from repro.testbed.nodes import TestbedOptions

SEED = 2

VARIANTS = (
    ("neither (plain SNTP cadence)", dict(enable_hint_gate=False, enable_filter=False)),
    ("gate only", dict(enable_hint_gate=True, enable_filter=False)),
    ("filter only", dict(enable_hint_gate=False, enable_filter=True)),
    ("gate + filter (full MNTP)", dict(enable_hint_gate=True, enable_filter=True)),
)


def _run_variant(overrides):
    config = MntpConfig.baseline_headtohead().with_overrides(**overrides)
    runner = ExperimentRunner(
        seed=SEED,
        options=TestbedOptions(wireless=True, ntp_correction=False),
        duration=3600.0,
        run_sntp=False,
        mntp_config=config,
        instrument=False,
    )
    return runner.run()


def bench_ablation_features(once, report):
    def run():
        return {name: _run_variant(flags) for name, flags in VARIANTS}

    results = once(run)

    rows = []
    means = {}
    for name, _ in VARIANTS:
        r = results[name]
        err = r.mntp_error_stats()
        means[name] = err.mean_abs
        rows.append([
            name, err.count, f"{err.mean_abs * 1000:.2f}",
            f"{err.max_abs * 1000:.1f}", len(r.mntp_rejected()),
        ])
    report(
        "ABLATION A1 — contribution of gating vs filtering (Fig-8 setting)\n\n"
        + render_table(
            ["variant", "accepted", "mean |err| (ms)", "max (ms)", "rejected"],
            rows,
        )
    )

    neither = means["neither (plain SNTP cadence)"]
    gate = means["gate only"]
    filt = means["filter only"]
    both = means["gate + filter (full MNTP)"]
    # Each mechanism alone improves on neither; together they are best
    # (or at least as good as the better single mechanism).
    assert gate < neither
    assert filt < neither
    assert both <= 1.2 * min(gate, filt)
    assert both < neither / 3
