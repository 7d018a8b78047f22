"""One benchmark leg in a fresh process: set up once, then timed passes.

Usage (``run.py`` starts these; the repository root is the working
directory)::

    python3 perfbench/worker.py WORKLOAD SEED LEG BUDGET_S [SIZE]

``LEG`` is ``timed`` (telemetry on, untraced), ``bare`` (telemetry off)
or ``traced`` (telemetry on, layer ledger installed before set-up).
The worker prints ``READY`` once set-up is done, so the parent can time
set-up from process start, then passes until the next one would end
after ``BUDGET_S`` (at least one), and finally one JSON line.  A
reference run (``reference.py``) comes before the first pass and after
every pass; each pass reports the mean of the two around it as
``ref_s``.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import sys
import time
import traceback
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from ledger import Ledger, install, layer_metrics, layer_rows  # noqa: E402
from reference import reference_s  # noqa: E402
from workloads import make_workloads  # noqa: E402


def run_leg(workload: Any, seed: int, leg: str, budget_s: float,
            ready: Any = None) -> Dict[str, Any]:
    """Set up ``workload`` and run passes for ``budget_s`` seconds.

    ``ready`` is called once set-up is done.  A pass that raises or
    fails the workload's check is recorded with an ``error``.
    """
    ledger = None
    uninstall = None
    if leg == "traced":
        ledger = Ledger()
        uninstall = install(ledger)
        ledger.take()
    try:
        state = workload.setup(seed)
        setup_window = ledger.take() if ledger else None
        if ready is not None:
            ready()
        passes: List[Dict[str, Any]] = []
        windows = []
        start = time.perf_counter()
        before = reference_s()
        last = 0.0
        while not passes or time.perf_counter() - start + last <= budget_s:
            began = time.perf_counter()
            one = _one_pass(workload, state, leg, ledger, windows)
            after = reference_s()
            one["ref_s"] = (before + after) / 2.0
            passes.append(one)
            before = after
            last = time.perf_counter() - began
    finally:
        if uninstall is not None:
            uninstall()
    out: Dict[str, Any] = {"leg": leg, "passes": passes}
    if ledger is not None and windows:
        out["layers"] = layer_metrics(setup_window, windows)
        out["rows"] = layer_rows(setup_window, windows)
    return out


def _one_pass(workload: Any, state: Any, leg: str, ledger: Any, windows: List[Any]) -> Dict[str, Any]:
    gc.collect()  # every pass starts from the same heap state
    if ledger is not None:
        ledger.take()  # the pass's window starts here
    try:
        host_s, raw = workload.execute(state, instrument=leg != "bare")
        if ledger is not None:
            windows.append(ledger.take())
        result = workload.summarise(host_s, raw)
    except Exception as exc:  # a failed pass is reported, not fatal
        return {"error": "".join(traceback.format_exception_only(type(exc), exc)).strip()}
    return {
        "host_s": result.host_s,
        "sim_hours": result.sim_hours,
        "exchanges": result.exchanges,
        "digest": result.digest,
        "accuracy": result.accuracy,
        "error": workload.check(result),
    }


def main(argv: List[str]) -> int:
    """Entry point; see the module docstring for the arguments."""
    name, seed, leg, budget = argv[0], int(argv[1]), argv[2], float(argv[3])
    size = argv[4] if len(argv) > 4 else "full"
    workload = make_workloads(size)[name]

    def ready() -> None:
        print("READY", flush=True)

    out = run_leg(workload, seed, leg, budget, ready)
    out["rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
