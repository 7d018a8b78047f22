"""Table 2 — MNTP tuner: parameters, RMSE, and request counts.

Logs a 4-hour trace on the testbed and replays the paper's six sample
configurations through the emulator.  Paper shape: RMSE decreases as
the request count grows (13.08 ms @ 239 requests down to 8.9 ms @ 2913
requests) and "MNTP performs well with only modest tuning".
"""

from repro.core.config import TABLE2_CONFIGS
from repro.reporting.tables import render_table
from repro.tuner.logger import LoggerOptions, TraceLogger
from repro.tuner.searcher import ParameterSearcher

SEED = 5

#: Published Table 2 rows: config -> (RMSE ms, requests).
PAPER_TABLE2 = {
    1: (13.08, 239),
    2: (11.66, 316),
    3: (11.09, 387),
    4: (10.86, 534),
    5: (9.27, 1210),
    6: (8.90, 2913),
}


def bench_table2_tuner_configs(once, report):
    def run():
        trace = TraceLogger(seed=SEED, options=LoggerOptions()).run()
        searcher = ParameterSearcher(trace)
        return {
            num: searcher.evaluate(config)
            for num, config in TABLE2_CONFIGS.items()
        }

    results = once(run)

    rows = []
    for num, result in results.items():
        wp, ww, rw, rp, rmse_ms, requests = result.row()
        paper_rmse, paper_requests = PAPER_TABLE2[num]
        rows.append([
            num, f"{wp:.0f}", f"{ww:.3f}", f"{rw:.0f}", f"{rp:.0f}",
            f"{rmse_ms:.2f}", requests, f"{paper_rmse:.2f}", paper_requests,
        ])
    report(
        "TABLE 2 — tuner configurations (measured vs paper)\n\n"
        + render_table(
            ["config", "warmup (min)", "warmup wait (min)",
             "regular wait (min)", "reset (min)", "RMSE (ms)", "requests",
             "paper RMSE", "paper reqs"],
            rows,
        )
    )

    rmses = {num: r.rmse_ms for num, r in results.items()}
    requests = {num: r.requests for num, r in results.items()}
    # Request counts grow monotonically with sampling density, matching
    # the published ordering.
    assert requests[1] < requests[2] < requests[3] < requests[4]
    assert requests[4] < requests[5] < requests[6]
    # Everything stays in the low-millisecond regime — the paper's
    # "MNTP performs well with only modest tuning".
    assert all(r < 15.0 for r in rmses.values())
    # Deviation note (recorded in EXPERIMENTS.md): the paper's strict
    # densest-is-best RMSE ordering does not reproduce here because our
    # residual error is dominated by channel measurement noise rather
    # than drift-estimation error (their laptop clock's skew was
    # non-linear; our simulated oscillator is nearly linear over 4 h).
    # All configurations remain within the same low-ms regime.
    assert max(rmses.values()) < 4 * min(rmses.values())
