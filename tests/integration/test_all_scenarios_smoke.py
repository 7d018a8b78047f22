"""Smoke-run every checked-in scenario spec (shortened durations).

Catches spec breakage — a file whose blocks fail to build, whose
wiring dies mid-run, or which produces no data — without paying the
full experiment durations.
"""

from dataclasses import replace

import pytest

from repro.testbed.catalog import scenario_names
from repro.testbed.specs import load_scenario


@pytest.mark.parametrize("name", scenario_names())
def test_scenario_smoke(name):
    spec = load_scenario(name)
    runner = replace(
        spec,
        duration_s=min(spec.duration_s, 180.0),
        cadence_s=min(spec.cadence_s, 5.0),
    ).build_runner(seed=7)
    result = runner.run()
    if spec.run_sntp:
        assert result.sntp or result.sntp_failures  # traffic flowed
    assert result.true_offsets
    if spec.mntp is not None:
        # MNTP at least attempted queries (reports may be empty if the
        # channel was hostile for the whole 3 minutes).
        sent = runner.sim.trace.select(component="mntp", kind="query_sent")
        deferred = runner.sim.trace.select(component="mntp", kind="deferred")
        assert sent or deferred
