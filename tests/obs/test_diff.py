"""Telemetry diff: same-seed identity, shifts, suspects, coercion."""

import json

import pytest

from repro.obs import (
    DIFF_FORMAT,
    Telemetry,
    coerce_snapshot,
    diff_snapshots,
    rank_suspects,
    render_diff_text,
)
from repro.testbed.specs import run_scenario


def build_snapshot(errors=(1.0, 2.0, 3.0), queries=5, spans=2,
                   drift=1.5, kinds=("offset_accepted",)):
    telemetry = Telemetry.standalone()
    telemetry.metrics.counter("q_total").inc(queries)
    telemetry.metrics.gauge("drift_ppm").set(drift)
    hist = telemetry.metrics.histogram("err_ms", buckets=(1.0, 10.0, 100.0))
    for value in errors:
        hist.observe(value)
    for i, kind in enumerate(kinds):
        telemetry.trace.emit(float(i), "mntp", kind, trace_id=f"tn/{i}")
    for _ in range(spans):
        span = telemetry.spans.begin("mntp.query")
        telemetry.advance()
        span.end(outcome="ok")
    return telemetry.snapshot()


# -- identity -------------------------------------------------------------


def test_identical_snapshots_diff_empty():
    a, b = build_snapshot(), build_snapshot()
    diff = diff_snapshots(a, b)
    assert diff["format"] == DIFF_FORMAT
    assert diff["identical"] is True
    assert render_diff_text(diff) == (
        "snapshots are identical (no telemetry differences)"
    )


def test_same_seed_scenario_runs_diff_empty():
    a = run_scenario("wired_corrected", seed=5)
    b = run_scenario("wired_corrected", seed=5)
    diff = diff_snapshots(a.telemetry, b.telemetry)
    assert diff["identical"] is True


def test_different_seed_runs_diff_nonempty():
    a = run_scenario("wired_corrected", seed=5)
    b = run_scenario("wired_corrected", seed=6)
    diff = diff_snapshots(a.telemetry, b.telemetry)
    assert diff["identical"] is False


# -- sections -------------------------------------------------------------


def test_counter_and_gauge_deltas():
    diff = diff_snapshots(
        build_snapshot(queries=5, drift=1.5),
        build_snapshot(queries=8, drift=0.5),
    )
    assert diff["counters"] == [
        {"name": "q_total", "a": 5.0, "b": 8.0, "delta": 3.0}
    ]
    assert diff["gauges"] == [
        {"name": "drift_ppm", "a": 1.5, "b": 0.5, "delta": -1.0}
    ]
    text = render_diff_text(diff)
    assert "q_total+3" in text and "drift_ppm-1" in text


def test_histogram_quantile_shift():
    diff = diff_snapshots(
        build_snapshot(errors=(1.0, 2.0, 3.0)),
        build_snapshot(errors=(1.0, 2.0, 50.0)),
    )
    (row,) = diff["histograms"]
    assert row["name"] == "err_ms"
    assert row["count_delta"] == 0
    assert row["sum_delta"] == pytest.approx(47.0)
    assert "p99" in row["quantile_shifts"]


def test_new_and_removed_series():
    base = build_snapshot()
    extra = build_snapshot(kinds=("offset_accepted", "false_ticker"))
    telemetry = Telemetry.standalone()
    telemetry.metrics.counter("novel_total").inc()
    novel = telemetry.snapshot()
    diff = diff_snapshots(base, extra)
    assert "mntp/false_ticker" in diff["new_record_kinds"]
    diff = diff_snapshots(base, novel)
    assert "novel_total" in diff["new_metrics"]
    assert "q_total" in diff["removed_metrics"]
    assert "mntp.query" in diff["removed_span_kinds"]


def test_span_regression_reported():
    slow = Telemetry.standalone()
    span = slow.spans.begin("mntp.query")
    for _ in range(10):
        slow.advance()
    span.end(outcome="ok")
    fast = Telemetry.standalone()
    span = fast.spans.begin("mntp.query")
    fast.advance()
    span.end(outcome="ok")
    diff = diff_snapshots(fast.snapshot(), slow.snapshot())
    (row,) = diff["spans"]
    assert row["kind"] == "mntp.query"
    assert row["total_dur_delta_s"] == pytest.approx(9.0)


# -- suspects -------------------------------------------------------------


def test_suspects_ranked_and_deterministic():
    a = run_scenario("wired_corrected", seed=5)
    b = run_scenario("mntp_wireless_corrected", seed=5)
    suspects = rank_suspects(
        a.telemetry, b.telemetry,
        samples_a=a.offset_samples(), samples_b=b.offset_samples(),
    )
    assert suspects
    scores = [s["score"] for s in suspects]
    assert scores == sorted(scores, reverse=True)
    again = rank_suspects(
        a.telemetry, b.telemetry,
        samples_a=a.offset_samples(), samples_b=b.offset_samples(),
    )
    assert suspects == again
    assert {s["kind"] for s in suspects} <= {
        "cause", "outcome", "span", "counter"
    }


def test_diff_document_round_trips_as_json():
    diff = diff_snapshots(build_snapshot(queries=1), build_snapshot(queries=9))
    assert json.loads(json.dumps(diff, sort_keys=True)) == diff


def test_render_respects_top():
    def snap(q, d):
        telemetry = Telemetry.standalone()
        telemetry.metrics.counter("q_total").inc(q)
        telemetry.metrics.counter("drops_total").inc(d)
        return telemetry.snapshot()

    diff = diff_snapshots(snap(1, 10), snap(9, 12))
    assert len(diff["suspects"]) > 1
    text = render_diff_text(diff, top=1)
    assert "top 1 suspects" in text
    assert "  2. " not in text


# -- coercion -------------------------------------------------------------


def test_coerce_accepts_all_diffable_formats(tmp_path):
    snapshot = build_snapshot()
    bare, samples = coerce_snapshot(snapshot)
    assert bare is snapshot and samples is None


def test_coerce_experiment_archive_yields_truth_samples(tmp_path):
    import io

    from repro.testbed.persistence import save_result

    result = run_scenario("wired_corrected", seed=3)
    buf = io.StringIO()
    save_result(result, buf)
    archive = json.loads(buf.getvalue())
    snapshot, samples = coerce_snapshot(archive)
    assert snapshot["format"] == "mntp-telemetry-v1"
    assert samples  # truth rides along for the error decomposition


def test_coerce_rejects_unknown_documents():
    with pytest.raises(ValueError):
        coerce_snapshot({"format": "mystery-v9"})
    with pytest.raises(ValueError):
        coerce_snapshot({"format": "mntp-telemetry-shard-v1",
                         "snapshot": build_snapshot()})
    with pytest.raises(ValueError):
        coerce_snapshot({})
