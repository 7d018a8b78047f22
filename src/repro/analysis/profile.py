"""The ``repro-mntp profile`` harness: measured hot-path artifacts.

Runs one named scenario (deterministic: fixed seed, virtual time)
under :mod:`cProfile` and reduces the pstats table to a JSON artifact
in ``benchmarks/``::

    {"format": "mntp-profile-v1", "scenario": ..., "seed": ...,
     "duration_s": ..., "functions": [
        {"path": "repro/simcore/simulator.py", "line": 151,
         "name": "run_until", "ncalls": 1, "tottime_s": ..., "cumtime_s": ...},
        ...]}

Call counts are exactly reproducible run to run (the simulation is
seeded and virtual-time); wall-clock fields are measured and therefore
machine-dependent, which is why consumers rank by them but never
compare them across artifacts.  ``lint --profile <artifact>`` joins
the samples onto the static hot closure
(:mod:`repro.analysis.flow.hot`), ranking both the hot-path report and
the PERF/CONC findings by measured cost instead of guessed cost.

Each run also appends a ``"mode": "profile"`` entry to the
``BENCH_obs.json`` trajectory (same document the bench harness grows),
so hot-path composition shifts stay visible over time next to the
bench timings.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import time
from dataclasses import replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

PROFILE_FORMAT = "mntp-profile-v1"

#: Where ``profile --smoke`` writes its artifact (the check.sh gate).
DEFAULT_PROFILE_PATH = "benchmarks/profile-smoke.json"

#: The smoke scenario: wireless + MNTP, so the event loop, the wireless
#: sampler, and both protocol stacks all appear in the profile.
SMOKE_SCENARIO = "mntp_wireless_corrected"
SMOKE_DURATION_S = 900.0

DEFAULT_TRAJECTORY = "BENCH_obs.json"
_TRAJECTORY_FORMAT = "mntp-bench-trajectory-v1"

#: Entries carried into the trajectory per profile run.
_TRAJECTORY_TOP = 10


def _norm(path: str) -> str:
    """Repo-relative ``repro/...`` form of a source path.

    Profile frames carry absolute interpreter paths while lint displays
    are cwd-relative; both reduce to the suffix starting at the
    ``repro`` package so the join is location-independent.
    """
    posix = Path(path).as_posix()
    index = posix.rfind("/repro/")
    if index >= 0:
        return "repro/" + posix[index + len("/repro/"):]
    return posix


def profile_scenario(
    scenario_name: str, seed: int = 0, duration_s: Optional[float] = None
) -> Tuple[cProfile.Profile, float]:
    """Run a scenario under cProfile; returns (profiler, wall seconds)."""
    from repro.testbed.specs import load_scenario

    spec = load_scenario(scenario_name)
    if duration_s is not None:
        spec = replace(spec, duration_s=duration_s)
    runner = spec.build_runner(seed=seed, health_spec=None)
    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    try:
        runner.run()
    finally:
        profiler.disable()
    return profiler, time.perf_counter() - start


def collect_functions(profiler: cProfile.Profile) -> List[Dict[str, Any]]:
    """Reduce a profiler to repo-function rows, sorted by location."""
    stats = pstats.Stats(profiler)
    rows: List[Dict[str, Any]] = []
    for (filename, lineno, name), value in stats.stats.items():
        _, ncalls, tottime, cumtime = value[:4]
        norm = _norm(filename)
        if not norm.startswith("repro/"):
            continue
        rows.append({
            "path": norm,
            "line": lineno,
            "name": name,
            "ncalls": ncalls,
            "tottime_s": round(tottime, 6),
            "cumtime_s": round(cumtime, 6),
        })
    rows.sort(key=lambda r: (r["path"], r["line"], r["name"]))
    return rows


def write_profile(
    path: Path,
    *,
    scenario: str,
    seed: int,
    duration_s: float,
    functions: List[Dict[str, Any]],
) -> Dict[str, Any]:
    """Write the artifact document; returns it."""
    document = {
        "format": PROFILE_FORMAT,
        "scenario": scenario,
        "seed": seed,
        "duration_s": duration_s,
        "functions": functions,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        json.dump(document, f, indent=2, sort_keys=True)
        f.write("\n")
    return document


class ProfileData:
    """A loaded artifact, indexed for the lint-side join.

    The join key is (normalized path, function name); same-name frames
    in one file (closures, nested defs) merge by summing call counts
    and keeping the largest cumulative time.
    """

    def __init__(self, document: Dict[str, Any]) -> None:
        self.document = document
        self._index: Dict[Tuple[str, str], Dict[str, Any]] = {}
        for row in document.get("functions", []):
            key = (row["path"], row["name"])
            entry = self._index.get(key)
            if entry is None:
                self._index[key] = {
                    "ncalls": row["ncalls"],
                    "cumtime_s": row["cumtime_s"],
                    "tottime_s": row["tottime_s"],
                }
            else:
                entry["ncalls"] += row["ncalls"]
                entry["cumtime_s"] = max(entry["cumtime_s"], row["cumtime_s"])
                entry["tottime_s"] += row["tottime_s"]

    def lookup(self, path: str, name: str) -> Optional[Dict[str, Any]]:
        """Sample for a lint display path + function name, if profiled."""
        return self._index.get((_norm(path), name))

    def describe(self) -> str:
        """Provenance line for report headers."""
        return (
            f"cumtime from scenario '{self.document.get('scenario')}' "
            f"(seed {self.document.get('seed')}, "
            f"{self.document.get('duration_s')} virtual s)"
        )


def load_profile(path: Path) -> ProfileData:
    """Load and validate an artifact; raises ``ValueError`` on mismatch."""
    with open(path) as f:
        document = json.load(f)
    if not isinstance(document, dict) or document.get("format") != PROFILE_FORMAT:
        raise ValueError(
            f"{path} is not a {PROFILE_FORMAT} artifact; "
            "generate one with 'repro-mntp profile'"
        )
    return ProfileData(document)


def migrate_trajectory_runs(
    runs: List[Dict[str, Any]]
) -> List[Dict[str, Any]]:
    """Normalise trajectory runs to the wall-seconds schema, in place.

    Early trajectories recorded every run's wall clock as
    ``total_seconds`` — including profile-mode runs, whose single
    scenario wall time is not a bench-suite total and polluted any
    consumer summing or comparing totals across the trajectory.  The
    current schema stores each run's own wall clock as
    ``wall_seconds`` and reserves ``total_seconds`` for bench-suite
    runs (sum over benches).  Old entries are migrated on every
    append: ``wall_seconds`` is backfilled from ``total_seconds`` (or
    the bench sum) and profile runs drop ``total_seconds``.
    """
    for run in runs:
        if "wall_seconds" not in run:
            total = run.get("total_seconds")
            if total is None:
                total = round(
                    sum(float(v) for v in run.get("benches", {}).values()), 3
                )
            run["wall_seconds"] = total
        if run.get("mode") == "profile":
            run.pop("total_seconds", None)
    return runs


def append_trajectory(
    path: Path, document: Dict[str, Any], wall_s: float
) -> Optional[int]:
    """Append a profile run to the bench trajectory; returns its number.

    Only a missing file or an existing trajectory document is written;
    anything else is left untouched (return None) — this helper must
    never clobber a file it does not understand.
    """
    runs: List[Dict[str, Any]] = []
    if path.exists():
        try:
            with open(path) as f:
                existing = json.load(f)
        except (OSError, json.JSONDecodeError):
            return None
        if (
            not isinstance(existing, dict)
            or existing.get("format") != _TRAJECTORY_FORMAT
        ):
            return None
        runs = migrate_trajectory_runs(list(existing.get("runs", [])))
    ranked = sorted(
        document["functions"],
        key=lambda r: (-r["cumtime_s"], r["path"], r["name"]),
    )[:_TRAJECTORY_TOP]
    number = len(runs) + 1
    runs.append({
        "run": number,
        "mode": "profile",
        "benches": {},
        "wall_seconds": round(wall_s, 3),
        "profile": {
            "scenario": document["scenario"],
            "seed": document["seed"],
            "duration_s": document["duration_s"],
            "top_cumtime": [
                {
                    "function": f"{r['path']}::{r['name']}",
                    "ncalls": r["ncalls"],
                    "cumtime_s": r["cumtime_s"],
                }
                for r in ranked
            ],
        },
    })
    with open(path, "w") as f:
        json.dump(
            {"format": _TRAJECTORY_FORMAT, "runs": runs},
            f, indent=2, sort_keys=True,
        )
    return number


def run_profile_command(args: Any) -> int:
    """Back end of the ``repro-mntp profile`` subcommand."""
    from repro.testbed.specs import load_scenario

    scenario = args.scenario or SMOKE_SCENARIO
    try:
        spec = load_scenario(scenario)
    except KeyError:
        print(f"error: unknown scenario: {scenario}")
        return 2
    duration_s = args.duration
    if duration_s is None and args.smoke:
        duration_s = SMOKE_DURATION_S
    if duration_s is None:
        duration_s = spec.duration_s

    profiler, wall_s = profile_scenario(
        scenario, seed=args.seed, duration_s=duration_s
    )
    functions = collect_functions(profiler)
    out = Path(args.out)
    document = write_profile(
        out, scenario=scenario, seed=args.seed,
        duration_s=duration_s, functions=functions,
    )
    print(
        f"profiled '{scenario}' (seed {args.seed}, {duration_s:g} virtual s, "
        f"{wall_s:.2f} wall s): {len(functions)} repro functions -> {out}"
    )

    ranked = sorted(
        functions, key=lambda r: (-r["cumtime_s"], r["path"], r["name"])
    )
    print(f"top {min(args.top, len(ranked))} by cumulative time:")
    for row in ranked[: args.top]:
        print(
            f"  {row['cumtime_s']:8.3f}s {row['ncalls']:>9}x  "
            f"{row['path']}:{row['line']} {row['name']}"
        )

    if not args.no_trajectory:
        number = append_trajectory(Path(args.trajectory), document, wall_s)
        if number is not None:
            print(f"run {number} appended to trajectory {args.trajectory}")
        else:
            print(
                f"trajectory {args.trajectory} not in "
                f"{_TRAJECTORY_FORMAT} format; skipped append"
            )
    return 0
