#!/usr/bin/env bash
# One-shot verification gate: one domain static-analysis run over src
# and tests, ruff, mypy, the tier-1 test suite (which runs the Figure 4
# bench too), the core and tuner tests with floating-point warnings as
# errors, the Figure 7 and Table 2 smoke benches, the perfbench
# self-tests and the smoke scenario matrix.
# Intended for CI and as a pre-push check.
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

echo "== repro-mntp lint (domain static analysis, src + tests)"
# One run over both trees.  Each rule states its own scope: under
# tests/ only the determinism and resource rules apply.
# Any finding left after inline '# repro: noqa[RULE] reason' fails the
# gate.
python -m repro.analysis src tests

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

    echo "== core + tuner with floating-point warnings as errors"
    # The trend fit calls LAPACK under its own error state instead of
    # through np.linalg.lstsq; a floating-point warning that state used
    # to silence fails here instead of printing during a run.
    python -X dev -W error::RuntimeWarning -m pytest -q tests/core tests/tuner

    echo "== paper benches (smoke)"
    # The fast figure/table benches; their shape asserts must hold.
    # Figure 4's bench is in tier-1 (pyproject testpaths) and ran above.
    # Wall time is not gated here: perfbench/ is the perf ledger.
    python -m pytest -q \
        benchmarks/bench_fig7_signals_selection.py \
        benchmarks/bench_table2_tuner_configs.py

    echo "== perfbench self-tests"
    # perfbench/ledger.py wraps repro functions by name; these tests
    # fail when a wrapped name moves or the benchmark stops running.
    python -m pytest perfbench -q

    echo "== scenario matrix gate (smoke tier)"
    # Runs the smoke-tagged specs under scenarios/ through the matrix
    # runner, one worker process per spec with a per-spec deadline
    # (chaos smoke matrix + wired baseline), and judges each finished
    # run against its embedded SloSpec guarantees (chaos_smoke:
    # smoke_spec() with no Minimal tier, so any out-of-fault violation
    # fails the gate).  Exit 1 on any hard-failed spec; see
    # docs/SCENARIO_SPECS.md.  The report must not depend on the
    # worker count, so it runs at --jobs 1 and --jobs 2 and the two
    # reports must be byte-identical.
    matrix_dir="$(mktemp -d)"
    trap 'rm -rf "$matrix_dir"' EXIT
    python -m repro.cli matrix scenarios --smoke --json --jobs 1 \
        > "$matrix_dir/jobs1.json"
    python -m repro.cli matrix scenarios --smoke --json --jobs 2 \
        > "$matrix_dir/jobs2.json"
    cmp "$matrix_dir/jobs1.json" "$matrix_dir/jobs2.json"
fi

echo "== all checks passed"
