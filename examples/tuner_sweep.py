#!/usr/bin/env python3
"""The MNTP tuner (§5.3): log a trace, then grid-search parameters.

Collects a 4-hour trace on the simulated testbed (offsets from three
pool servers plus wireless hints, every 5 s) and evaluates the paper's
six sample configurations (Table 2) plus a full grid search.

Usage::

    python examples/tuner_sweep.py [seed] [--save trace.jsonl]
"""

import sys

from repro.core.config import TABLE2_CONFIGS
from repro.reporting.tables import render_table
from repro.tuner.logger import LoggerOptions, TraceLogger
from repro.tuner.searcher import ParameterSearcher, SearchSpace


def main() -> None:
    args = sys.argv[1:]
    seed = int(args[0]) if args and args[0].isdigit() else 5
    print("Logging a 4-hour trace (5 s cadence, 3 sources + hints)...")
    trace = TraceLogger(seed=seed, options=LoggerOptions()).run()
    print(f"  {len(trace)} entries covering {trace.duration / 3600:.1f} h")

    if "--save" in args:
        path = args[args.index("--save") + 1]
        with open(path, "w") as f:
            trace.save(f)
        print(f"  trace saved to {path}")

    searcher = ParameterSearcher(trace)

    print("\nTable 2's six sample configurations:")
    rows = []
    for num, config in TABLE2_CONFIGS.items():
        result = searcher.evaluate(config)
        wp, ww, rw, rp, rmse_ms, requests = result.row()
        rows.append([num, f"{wp:.0f}", f"{ww:.3f}", f"{rw:.0f}", f"{rp:.0f}",
                     f"{rmse_ms:.2f}", requests])
    print(render_table(
        ["config", "warmup (min)", "warmup wait (min)", "regular wait (min)",
         "reset (min)", "RMSE (ms)", "requests"],
        rows,
    ))

    print("\nFull grid search (best five):")
    results = ParameterSearcher(trace, space=SearchSpace()).search()
    rows = []
    for result in results[:5]:
        wp, ww, rw, rp, rmse_ms, requests = result.row()
        rows.append([f"{wp:.0f}", f"{ww:.3f}", f"{rw:.0f}",
                     f"{rmse_ms:.2f}", requests])
    print(render_table(
        ["warmup (min)", "warmup wait (min)", "regular wait (min)",
         "RMSE (ms)", "requests"],
        rows,
    ))
    print("\nShape check (Table 2): RMSE falls as the request count grows.")


if __name__ == "__main__":
    main()
