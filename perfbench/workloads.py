"""The benchmark's three workloads, driven through the program's public API.

Each workload has a set-up (done once per process, timed as ``setup_s``)
and a *pass*: one fixed batch of work whose host time is measured.  A
pass returns a digest of its simulated statistics, which must be equal
on every pass of a workload and seed, whatever the leg (untraced,
traced, or with telemetry off).

* ``wireless_h2h`` -- ``scenarios/mntp_wireless_corrected.json``: SNTP
  and MNTP head to head over the degraded wireless hop, ntpd on.
* ``wired_sntp`` -- ``scenarios/wired_corrected.json``: SNTP over the
  wired path with ntpd disciplining the clock; no channel, no MNTP.
* ``tuner_grid`` -- set-up logs four 4-h traces; a pass replays each
  through MNTP for every configuration of a grid denser than Table 2's.

Scenario passes run several independent simulations, and ``tuner_grid``
replays several traces, whose seeds derive from the workload seed
(``seed * 1000 + k``), so one unlucky channel draw does not decide a
run's work or accuracy.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_MIN = 60.0


@dataclass
class PassResult:
    """One measured pass.

    Attributes:
        host_s: Host seconds of the timed region.
        sim_hours: Simulated hours the pass covered (``tuner_grid``:
            replayed trace-hours summed over configurations).
        exchanges: SNTP requests put on the wire by the TN's clients
            (``tuner_grid``: emulated requests).
        digest: Simulated statistics; ``digest["telemetry"]`` holds the
            fields that depend on telemetry being on.
        accuracy: The pass's accuracy statistics, by metric name.
    """

    host_s: float
    sim_hours: float
    exchanges: int
    digest: Dict[str, Any]
    accuracy: Dict[str, float]


class ScenarioWorkload:
    """Runs a checked-in scenario spec the way ``repro-mntp run`` does.

    Args:
        spec_file: File under ``scenarios/``.
        sims: Independent simulations per pass.
        hours: Simulated hours per simulation (overrides ``duration_s``).
    """

    #: Scenario runs can switch telemetry off (``instrument=False``).
    has_bare_leg = True

    def __init__(self, spec_file: str, sims: int, hours: float) -> None:
        self.spec_file = spec_file
        self.sims = sims
        self.hours = hours

    def describe(self) -> str:
        """One line saying what a pass runs."""
        return (f"{self.spec_file}: {self.sims} simulation(s) x {self.hours:g} h "
                f"per pass")

    def setup(self, seed: int) -> Tuple[Any, List[int]]:
        """Load the spec; derive the per-simulation seeds."""
        from repro.testbed.specs import load_spec

        spec = load_spec(os.path.join(ROOT, "scenarios", self.spec_file))
        return spec, [seed * 1000 + k for k in range(self.sims)]

    def execute(self, state: Tuple[Any, List[int]], instrument: bool) -> Tuple[float, List[Any]]:
        """Run the pass; returns (host seconds, [(runner, result), ...])."""
        from repro.testbed.experiment import ExperimentRunner

        spec, seeds = state
        runners = []
        host_s = 0.0
        for sim_seed in seeds:
            runner = ExperimentRunner(
                seed=sim_seed,
                options=spec.build_options(),
                duration=self.hours * 3600.0,
                sntp_cadence=spec.cadence_s,
                run_sntp=spec.run_sntp,
                mntp_config=spec.mntp,
                instrument=instrument,
            )
            start = time.perf_counter()
            result = runner.run()
            host_s += time.perf_counter() - start
            runners.append((runner, result))
        return host_s, runners

    def summarise(self, host_s: float, runners: List[Any]) -> PassResult:
        """Digest and accuracy of an executed pass."""
        sims = []
        exchanges = 0
        sntp_sum = sntp_n = mntp_sum = mntp_n = 0.0
        records = []
        for runner, result in runners:
            testbed = runner.testbed
            clients = [testbed.sntp_app, testbed.mntp_app]
            if testbed.ntpd is not None:
                clients.append(testbed.ntpd.client)
            sntp = result.sntp_error_stats()
            mntp = result.mntp_error_stats()
            sntp_sum += sntp.mean_abs * sntp.count
            sntp_n += sntp.count
            mntp_sum += mntp.mean_abs * mntp.count
            mntp_n += mntp.count
            exchanges += sum(c.queries_sent for c in clients)
            sims.append({
                "seed": runner.seed,
                "sntp_ok": len(result.sntp),
                "sntp_failures": result.sntp_failures,
                "mntp_accepted": mntp.count,
                "mntp_rejected": len(result.mntp_rejected()),
                "mntp_deferred": runner.mntp.deferral_count if runner.mntp else 0,
                "queries_sent": {c.name: c.queries_sent for c in clients},
                "responses": {c.name: c.responses_received for c in clients},
                "timeouts": {c.name: c.timeouts for c in clients},
                "sntp_mean_abs_error_s": sntp.mean_abs,
                "mntp_mean_abs_error_s": mntp.mean_abs,
            })
            records.append(len(result.telemetry["records"]))
        accuracy = {"sntp_error_ms": 1e3 * sntp_sum / max(sntp_n, 1)}
        if mntp_n:
            accuracy["mntp_error_ms"] = 1e3 * mntp_sum / mntp_n
            accuracy["improvement_x"] = accuracy["sntp_error_ms"] / accuracy["mntp_error_ms"]
        return PassResult(
            host_s=host_s,
            sim_hours=self.hours * len(runners),
            exchanges=exchanges,
            digest={"sims": sims, "accuracy": accuracy,
                    "telemetry": {"records": records}},
            accuracy=accuracy,
        )

    def check(self, result: PassResult) -> Optional[str]:
        """The EXPERIMENTS.md shape this workload must keep, or None."""
        if any(sim["sntp_ok"] == 0 for sim in result.digest["sims"]):
            return "a simulation produced no SNTP offsets"
        improvement = result.accuracy.get("improvement_x")
        if improvement is not None and not improvement > 1.0:
            return f"MNTP does not beat SNTP (improvement {improvement:.3f}x)"
        return None


class TunerWorkload:
    """Offline grid search over logged traces (Table 2, denser).

    Args:
        hours: Length of each logged trace.
        traces: Traces logged at set-up and searched per pass.
        space: Keyword arguments of :class:`repro.tuner.SearchSpace`.
    """

    #: The search takes no telemetry (``tune``'s default): nothing to switch off.
    has_bare_leg = False

    def __init__(self, hours: float, traces: int, space: Dict[str, Tuple[float, ...]]) -> None:
        self.hours = hours
        self.traces = traces
        self.space = space

    def describe(self) -> str:
        """One line saying what a pass runs."""
        dims = " x ".join(str(len(v)) for v in self.space.values())
        return (f"{self.traces} x {self.hours:g}-h trace(s), grid search over {dims} "
                f"configurations per pass")

    def setup(self, seed: int) -> Tuple[Any, Any]:
        """Log the traces the passes replay."""
        from repro.tuner.logger import LoggerOptions, TraceLogger
        from repro.tuner.searcher import SearchSpace

        options = LoggerOptions(duration=self.hours * 3600.0)
        traces = [TraceLogger(seed=seed * 1000 + k, options=options).run()
                  for k in range(self.traces)]
        return traces, SearchSpace(**self.space)

    def execute(self, state: Tuple[Any, Any], instrument: bool) -> Tuple[float, List[Any]]:
        """Search the grid (the search takes no telemetry, as ``tune`` by default)."""
        from repro.tuner.searcher import ParameterSearcher

        traces, space = state
        start = time.perf_counter()
        results = [ParameterSearcher(trace, space=space).search() for trace in traces]
        return time.perf_counter() - start, list(zip(traces, results))

    def summarise(self, host_s: float, outcome: List[Any]) -> PassResult:
        """Digest and accuracy of an executed pass."""
        rows = [list(r.row()) + [r.reported_count] for _, results in outcome for r in results]
        best = [results[0].rmse_ms for _, results in outcome]
        accuracy = {"tuner_best_rmse_ms": sum(best) / len(best)}
        return PassResult(
            host_s=host_s,
            sim_hours=sum(trace.duration / 3600.0 * len(results) for trace, results in outcome),
            exchanges=sum(r.requests for _, results in outcome for r in results),
            digest={"configs": rows, "accuracy": accuracy, "telemetry": {}},
            accuracy=accuracy,
        )

    def check(self, result: PassResult) -> Optional[str]:
        """Request counts must fall as either wait time grows."""
        rows = result.digest["configs"]
        for column, label in ((1, "warm-up wait"), (2, "regular wait")):
            totals: Dict[float, int] = {}
            for row in rows:
                totals[row[column]] = totals.get(row[column], 0) + row[5]
            ordered = [totals[wait] for wait in sorted(totals)]
            if any(a <= b for a, b in zip(ordered, ordered[1:])):
                return f"requests do not fall as the {label} grows: {ordered}"
        return None


def make_workloads(size: str = "full") -> Dict[str, Any]:
    """The workloads by name; ``size="tiny"`` shrinks them for self-tests."""
    tiny = size == "tiny"
    grid = {
        "warmup_periods": (30 * _MIN, 90 * _MIN, 240 * _MIN),
        "warmup_wait_times": (0.25 * _MIN, 1.0 * _MIN),
        "regular_wait_times": (5 * _MIN, 30 * _MIN),
        "reset_periods": (240 * _MIN,),
    }
    if tiny:
        grid["warmup_periods"] = (10 * _MIN, 20 * _MIN)
    return {
        "wireless_h2h": ScenarioWorkload(
            "mntp_wireless_corrected.json", sims=1 if tiny else 2, hours=0.25 if tiny else 1.0),
        "wired_sntp": ScenarioWorkload(
            "wired_corrected.json", sims=1 if tiny else 2, hours=0.25 if tiny else 4.0),
        "tuner_grid": TunerWorkload(hours=0.5 if tiny else 4.0, traces=1 if tiny else 4,
                                    space=grid),
    }
