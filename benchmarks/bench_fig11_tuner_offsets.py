"""Figure 11 — achievable clock offsets for the six sample configurations.

Replays Table 2's configurations and renders each configuration's
corrected-offset series (the quantity Figure 11 plots over the 4-hour
trace window).
"""

from repro.core.config import TABLE2_CONFIGS
from repro.reporting.series import render_cdf, render_series
from repro.tuner.emulator import MntpEmulator
from repro.tuner.logger import LoggerOptions, TraceLogger

SEED = 5


def bench_fig11_tuner_offsets(once, report):
    def run():
        trace = TraceLogger(seed=SEED, options=LoggerOptions()).run()
        return {
            num: MntpEmulator(trace, config).run()
            for num, config in TABLE2_CONFIGS.items()
        }

    emulations = once(run)

    lines = []
    for num, emulation in emulations.items():
        offsets = [offset for _, offset in emulation.reported]
        lines.append(render_series(offsets, label=f"config {num} offsets"))
        lines.append(render_cdf(offsets, label=f"config {num} CDF     "))
    report("FIGURE 11 — achievable offsets per tuner configuration\n\n"
           + "\n".join(lines))

    for num, emulation in emulations.items():
        offsets = [abs(o) for _, o in emulation.reported]
        assert offsets, f"config {num} reported nothing"
        mean_abs = sum(offsets) / len(offsets)
        # Corrected offsets stay in the low-ms regime for every config.
        assert mean_abs < 0.020
    # Denser configurations report many more corrected offsets.
    assert len(emulations[6].reported) > 3 * len(emulations[1].reported)
