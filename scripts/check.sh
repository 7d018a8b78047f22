#!/usr/bin/env bash
# One-shot verification gate: domain static analysis, ruff, mypy, and
# the tier-1 test suite.  Intended for CI and as a pre-push check.
#
#   scripts/check.sh            # everything
#   scripts/check.sh --fast     # skip the test suite
#
# ruff/mypy are optional extras (pip install -e ".[lint]"); when they
# are not installed the corresponding step is skipped with a notice so
# the gate still works in minimal environments.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== repro-mntp lint (domain static analysis, src)"
# Warm runs hit the content-hash cache (.repro-lint-cache.json) and
# skip re-parsing unchanged files entirely.
python -m repro.analysis src

echo "== repro-mntp lint (determinism rules, tests)"
python -m repro.analysis tests --select DET001,DET002,DET003,DET004 --no-baseline

echo "== repro-mntp lint (hot-path perf + parallel readiness, src)"
# The tentpole gate: no unbaselined per-iteration cost in the sim hot
# closure, no shared mutable state that would break a shard split, and
# no telemetry emission bypassing the ring-buffer sink in hot code.
python -m repro.analysis src \
    --select PERF001,PERF002,PERF003,PERF004,CONC001,CONC002,CONC003,OBS003 \
    --no-baseline

echo "== repro-mntp lint (CFG dataflow: resource typestate + precision, src + tests)"
# Phase 1.5 gate: no span/telemetry/file handle leaked on any path,
# no _ns/_us precision lost to float windows, 16.16 truncation,
# era-unsafe NTP compares, or collapsing division chains.  Runs with
# --jobs/--stats so per-phase timing lands in CI logs.
python -m repro.analysis src tests \
    --select RES001,RES002,RES003,PREC001,PREC002,PREC003,PREC004 \
    --no-baseline --jobs 4 --stats

if python -m ruff --version >/dev/null 2>&1; then
    echo "== ruff"
    python -m ruff check src tests
else
    echo "== ruff: skipped (not installed; pip install -e '.[lint]')"
fi

if python -m mypy --version >/dev/null 2>&1; then
    echo "== mypy"
    python -m mypy
else
    echo "== mypy: skipped (not installed; pip install -e '.[lint]')"
fi

if [[ "${1:-}" != "--fast" ]]; then
    echo "== pytest (tier-1)"
    python -m pytest -x -q

    echo "== bench harness (smoke)"
    # Appends a run to the BENCH_obs.json trajectory; fails if the
    # timing document cannot be produced, any smoke bench regresses
    # >25% against benchmarks/bench-baseline.json, or a bench's
    # exchanges/sec falls below the same-mode trajectory median.  On a
    # tripped throughput gate the harness auto-diffs the run's archived
    # telemetry against the trajectory's median baseline run and prints
    # ranked triage suspects before the REGRESSION lines.
    python scripts/bench.py --smoke

    echo "== telemetry overhead gate (instrumented <= 15% over bare)"
    # Median per-pair ratio over five interleaved instrumented/bare
    # runs of the smoke scenario (health monitor attached); fails if
    # the full telemetry stack costs more than 15%.
    python scripts/obs_overhead.py

    echo "== scenario matrix gate (smoke tier)"
    # Runs the smoke-tagged specs under scenarios/ through the
    # fault-tolerant matrix runner (chaos smoke matrix + wired
    # baseline), judges each against its embedded SloSpec guarantees
    # (chaos_smoke: smoke_spec() with no Minimal tier, so any
    # out-of-fault violation fails the gate),
    # and appends a "mode": "matrix" timing run (wall time, specs/min)
    # to the BENCH_obs.json trajectory.  Exit 1 on any hard-failed
    # spec; see docs/SCENARIO_SPECS.md.
    python scripts/bench.py --matrix scenarios

    echo "== profile harness (smoke)"
    # Writes benchmarks/profile-smoke.json (git-ignored) and appends a
    # profile run to the BENCH_obs.json trajectory.
    python -m repro.cli profile --smoke

    echo "== lint --profile (hot-path report ranked by measured cost)"
    python -m repro.analysis src --profile benchmarks/profile-smoke.json \
        --hot-report
fi

echo "== all checks passed"
