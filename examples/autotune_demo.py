#!/usr/bin/env python3
"""Self-tuning MNTP (the paper's §7 future work).

Collects a testbed trace, asks the AutoTuner for the cheapest
configuration that achieves a target accuracy within a request budget,
and prints the accuracy/request Pareto front — the trade-off curve the
paper planned to evaluate.

Usage::

    python examples/autotune_demo.py [seed] [target_ms]
"""

import sys

from repro.reporting.tables import render_table
from repro.tuner.autotune import AutoTuneOptions, AutoTuner
from repro.tuner.logger import LoggerOptions, TraceLogger


def main() -> None:
    args = sys.argv[1:]
    seed = int(args[0]) if args else 5
    target_ms = float(args[1]) if len(args) > 1 else 8.0

    print("Logging a 4-hour trace...")
    trace = TraceLogger(seed=seed, options=LoggerOptions()).run()

    tuner = AutoTuner(options=AutoTuneOptions(
        target_rmse_ms=target_ms,
        max_requests_per_hour=400.0,
    ))
    outcome = tuner.tune(trace)

    print(f"\ntarget: RMSE <= {target_ms} ms within 400 requests/hour")
    if outcome.recommended is None:
        print("no viable configuration found")
        return
    c = outcome.recommended
    status = "meets the target" if outcome.met_target else "best affordable"
    print(f"recommended ({status}): warmup={c.warmup_period / 60:.0f} min, "
          f"warmupWait={c.warmup_wait_time / 60:.2f} min, "
          f"regularWait={c.regular_wait_time / 60:.0f} min, "
          f"reset={c.reset_period / 60:.0f} min")

    print("\naccuracy/request Pareto front:")
    rows = [
        [f"{r.config.warmup_period / 60:.0f}",
         f"{r.config.warmup_wait_time / 60:.2f}",
         f"{r.config.regular_wait_time / 60:.0f}",
         r.requests, f"{r.rmse_ms:.2f}"]
        for r in outcome.pareto
    ]
    print(render_table(
        ["warmup (min)", "warmup wait (min)", "regular wait (min)",
         "requests", "RMSE (ms)"], rows,
    ))
    print(f"\n({len(outcome.evaluated)} configurations evaluated; "
          "the front shows where extra requests stop buying accuracy)")


if __name__ == "__main__":
    main()
