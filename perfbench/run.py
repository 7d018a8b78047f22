"""The repository benchmark: three paper workloads, timed end to end and by layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload wireless_h2h --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: three
fresh processes each set up the workload (``setup_s``) and run timed
passes for a third of ``--seconds``.  Every time is scaled to a quiet
host by the reference task run around each pass (``reference.py``).
``--trace 1`` measures the per-layer metrics instead: one untraced
leg, one leg with telemetry off
(scenario workloads) and one traced leg whose layer ledger prints as a
table.  Every pass's simulated statistics are checked against the first
pass's; a pass that raises or differs counts as failed, and the run then
exits 1.  The last line of standard output is the JSON result.

``--size tiny`` shrinks every workload for the self-tests.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from reference import NOMINAL_S
from workloads import make_workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = tuple(make_workloads())

#: Processes a ``--trace 0`` run sets the workload up in.
SETUP_REPEATS = 3

#: A worker that has not finished this long after its budget is killed.
WORKER_GRACE_S = 150.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "host_s_per_sim_h": "s",
    "exchanges_per_s": "1/s",
    "peak_rss_mib": "MiB",
}

#: Accuracy statistics, exact per seed: printed and checked, not timed.
ACCURACY_UNITS = {
    "sntp_error_ms": "ms",
    "mntp_error_ms": "ms",
    "improvement_x": "ratio",
    "tuner_best_rmse_ms": "ms",
}

PER_LAYER_UNITS = {
    "simcore.events": "count",
    "simcore.events_scheduled": "count",
    "simcore.live_ratio": "ratio",
    "simcore.self_s": "s",
    "simcore.host_us_per_event": "us",
    "clock.reads": "count",
    "clock.self_s": "s",
    "net.packets": "count",
    "net.delivered_ratio": "ratio",
    "net.self_s": "s",
    "wireless.effect_samples": "count",
    "wireless.hint_reads": "count",
    "wireless.frame_loss_ratio": "ratio",
    "wireless.self_s": "s",
    "ntp.queries": "count",
    "ntp.response_ratio": "ratio",
    "ntp.timeouts": "count",
    "ntp.codec.calls": "count",
    "ntp.codec.self_s": "s",
    "ntp.self_s": "s",
    "core.filter_offers": "count",
    "core.accept_ratio": "ratio",
    "core.deferrals": "count",
    "core.trend_fits": "count",
    "core.self_s": "s",
    "tuner.configs": "count",
    "tuner.replayed_entries": "count",
    "tuner.self_s": "s",
    "testbed.ping_probes": "count",
    "testbed.self_s": "s",
    "obs.records": "count",
    "obs.spans": "count",
    "obs.self_s": "s",
    "obs.snapshot_s": "s",
    "obs.overhead_ratio": "ratio",
    "obs.rss_mib": "MiB",
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_s": "s",
    "trace.wall_s": "s",
}

PAPER = {"improvement_x": 12.0, "tuner_best_rmse_ms": 8.90}


class WorkerError(RuntimeError):
    """A worker process could not set up or did not report."""


def spawn_leg(workload: str, seed: int, leg: str, budget_s: float,
              size: str) -> Tuple[float, Dict[str, Any]]:
    """Run one leg in a fresh process; returns (set-up seconds, report)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           workload, str(seed), leg, repr(budget_s), size]
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(budget_s + WORKER_GRACE_S, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - started
        rest, _ = proc.communicate()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = rest.strip().splitlines()
    if first.strip() != "READY" or proc.returncode != 0 or not lines:
        raise WorkerError(f"{leg} worker for {workload} failed (exit {proc.returncode})")
    return setup_s, json.loads(lines[-1])


def judge(legs: List[Dict[str, Any]]) -> Tuple[int, int, List[str]]:
    """Count passes and failed passes over all legs of one run.

    The first good pass is the reference: every other pass must carry
    the same digest (the bare leg: the same telemetry-free fields).
    """
    reference: Optional[Dict[str, Any]] = None
    attempted = failed = 0
    problems: List[str] = []
    for leg in legs:
        for index, one in enumerate(leg["passes"]):
            attempted += 1
            where = f"{leg['leg']} pass {index + 1}"
            if one.get("error"):
                failed += 1
                problems.append(f"{where}: {one['error']}")
                continue
            digest = one["digest"]
            if reference is None:
                reference = digest
                continue
            fields = [k for k in reference if k != "telemetry" or leg["leg"] != "bare"]
            differing = [k for k in fields if digest.get(k) != reference[k]]
            if differing:
                failed += 1
                problems.append(f"{where}: simulated statistics differ ({', '.join(differing)})")
    return attempted, failed, problems


def _good(legs: List[Dict[str, Any]], leg: str) -> List[Dict[str, Any]]:
    return [p for one in legs if one["leg"] == leg for p in one["passes"] if not p.get("error")]


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _scaled(one: Dict[str, Any]) -> float:
    """A pass's host seconds at the reference task's nominal host speed."""
    return one["host_s"] * NOMINAL_S / one["ref_s"]


def _leg_ref_s(leg: Dict[str, Any]) -> float:
    return _median([p["ref_s"] for p in leg["passes"]])


def end_to_end(setups: List[float], legs: List[Dict[str, Any]]) -> Dict[str, List[float]]:
    """Samples of every end-to-end metric (tracing off), times scaled.

    A set-up is scaled by the median reference time of the process it
    ran in, a pass by the reference runs just before and after it.
    """
    passes = _good(legs, "timed")
    return {
        "setup_s": [s * NOMINAL_S / _leg_ref_s(leg) for s, leg in zip(setups, legs)],
        "host_s_per_sim_h": [_scaled(p) / p["sim_hours"] for p in passes],
        "exchanges_per_s": [p["exchanges"] / _scaled(p) for p in passes],
        "peak_rss_mib": [leg["rss_mib"] for leg in legs],
    }


def per_layer(legs: List[Dict[str, Any]]) -> Dict[str, float]:
    """Every per-layer metric, from the traced leg and the comparison legs."""
    by_leg = {leg["leg"]: leg for leg in legs}
    metrics = dict(by_leg["traced"]["layers"])
    timed = _median([_scaled(p) for p in _good(legs, "timed")])
    traced = _median([_scaled(p) for p in _good(legs, "traced")])
    metrics["trace.overhead_ratio"] = traced / timed if timed else 0.0
    if "bare" in by_leg and _good(legs, "bare"):
        bare = _median([_scaled(p) for p in _good(legs, "bare")])
        metrics["obs.overhead_ratio"] = timed / bare if bare else 0.0
        metrics["obs.rss_mib"] = by_leg["timed"]["rss_mib"] - by_leg["bare"]["rss_mib"]
    else:
        # The search takes no telemetry, so a bare leg would run the same code.
        metrics["obs.overhead_ratio"] = 1.0
        metrics["obs.rss_mib"] = 0.0
    return metrics


def _spread(values: List[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"q1 {q1:.4g}  q3 {q3:.4g}  min {min(values):.4g}  max {max(values):.4g}  n={len(values)}"


def print_end_to_end(samples: Dict[str, List[float]], legs: List[Dict[str, Any]]) -> Dict[str, float]:
    """Print medians with their spread; returns the medians."""
    refs = [p["ref_s"] for leg in legs for p in leg["passes"]]
    print(f"host speed: reference task {_median(refs):.4g} s (median; {_spread(refs)}), "
          f"nominal {NOMINAL_S:g} s")
    print("end-to-end (tracing off; median over passes, set-ups and processes;")
    print("            times scaled to the reference task's nominal host speed)")
    medians = {}
    for name, values in samples.items():
        medians[name] = _median(values)
        print(f"  {name:<18} {medians[name]:>12.5g} {END_TO_END_UNITS[name]:<4} {_spread(values)}")
    return medians


def print_accuracy(legs: List[Dict[str, Any]]) -> None:
    """Print the accuracy statistics of the first good pass."""
    passes = [p for leg in legs for p in leg["passes"] if not p.get("error")]
    if not passes:
        return
    print("simulated results (exact per seed; checked, not timed)")
    for name, value in passes[0]["accuracy"].items():
        paper = f"   paper: {PAPER[name]:g}" if name in PAPER else ""
        print(f"  {name:<18} {value:>12.5g} {ACCURACY_UNITS[name]:<4}{paper}")


def print_layers(legs: List[Dict[str, Any]], metrics: Dict[str, float]) -> None:
    """The layer table and every per-layer metric."""
    traced = next(leg for leg in legs if leg["leg"] == "traced")
    wall = metrics["trace.wall_s"]
    print("where the wall time went (traced: set-up + one average pass, self time)")
    print(f"  {'layer':<14} {'self s':>10} {'share':>7} {'calls':>10}")
    for layer, seconds, calls in traced["rows"]:
        share = 100.0 * seconds / wall if wall else 0.0
        print(f"  {layer:<14} {seconds:>10.4f} {share:>6.1f}% {calls:>10}")
    print(f"  {'total':<14} {wall:>10.4f} {100.0:>6.1f}%")
    print("per-layer metrics")
    for name, unit in PER_LAYER_UNITS.items():
        print(f"  {name:<28} {metrics[name]:>14.6g} {unit}")


def run(workload: str, seed: int, seconds: float, trace: bool, size: str) -> int:
    """Run one benchmark invocation; prints the report and the JSON line."""
    described = make_workloads(size)[workload]
    if trace:
        plan = ["timed", "bare", "traced"] if described.has_bare_leg else ["timed", "traced"]
    else:
        plan = ["timed"] * SETUP_REPEATS
    setups, legs = [], []
    for leg in plan:
        setup_s, report = spawn_leg(workload, seed, leg, seconds / len(plan), size)
        setups.append(setup_s)
        legs.append(report)

    attempted, failed, problems = judge(legs)
    print(f"workload {workload}  seed {seed}  size {size}  trace {int(trace)}")
    print(f"  {described.describe()}")
    if trace:
        traced_ok = "layers" in legs[-1] and _good(legs, "timed")
        metrics = per_layer(legs) if traced_ok else {}
        if metrics:
            print_layers(legs, metrics)
        units = PER_LAYER_UNITS
    else:
        metrics = print_end_to_end(end_to_end(setups, legs), legs)
        print_accuracy(legs)
        units = END_TO_END_UNITS
    for problem in problems:
        print(f"FAILED {problem}")
    print(f"checks: {attempted - failed}/{attempted} passes match the reference digest "
          f"and the workload's shape")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def main(argv: Optional[List[str]] = None) -> int:
    """Command-line entry point."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program to benchmark: {os.path.join(ROOT, 'src', 'repro')} is missing",
              file=sys.stderr)
        return 2
    try:
        return run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    except WorkerError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
