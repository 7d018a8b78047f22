"""The explain engine: decomposition algebra, reports, determinism."""

import json
import math

import pytest

from repro.obs.causal import assemble_exchanges
from repro.obs.explain import CAUSES, decompose, explain_run, render_tree
from tests.obs.test_causal import exchange_records, snapshot_of, span_record


def make_exchange(**overrides):
    records = exchange_records(**overrides)
    return assemble_exchanges(snapshot_of(records))[0]


def test_decomposition_components():
    ex = make_exchange()
    # Request hop: prop .01 queue .02 intf .01; response: .01/.01/.02.
    d = decompose(ex)
    assert d is not None
    assert abs(d.asymmetry - 0.0) < 1e-12
    assert abs(d.queueing - 0.005) < 1e-12
    assert abs(d.interference - (-0.005)) < 1e-12
    assert d.error is None and d.server_turnaround is None
    assert d.turnaround_s is not None


def test_decomposition_with_truth_recovers_server_term():
    ex = make_exchange()
    truth = 0.001  # local clock runs 1 ms fast
    d = decompose(ex, truth=truth)
    assert abs(d.error - (ex.offset + truth)) < 1e-12
    # error = asym + queue + intf + server_term, exactly.
    assert abs(
        d.error - (d.asymmetry + d.queueing + d.interference
                   + d.server_turnaround)
    ) < 1e-12


def test_decompose_skips_non_ok_and_hopless():
    assert decompose(make_exchange(outcome="timeout")) is None
    assert decompose(make_exchange(with_request=False)) is None


def test_dominant_cause_fixed_tiebreak():
    d = decompose(make_exchange())
    # queueing (+5ms) and interference (-5ms) tie in magnitude;
    # interference comes first in CAUSES, so it wins the tie.
    assert CAUSES.index("interference") < CAUSES.index("queueing")
    assert d.dominant_cause == "interference"


def test_explain_run_report_shape():
    records = exchange_records(trace_id="c/1") + exchange_records(
        trace_id="c/2", outcome="timeout",
        with_turnaround=False, with_response=False,
    )
    report = explain_run(snapshot_of(records), samples=[(10.5, 0.004, 0.001)])
    assert report.exchanges_total == 2
    assert report.outcomes == {"ok": 1, "timeout": 1}
    assert report.exchanges_complete == 1
    assert report.coverage == 0.5
    assert len(report.decompositions) == 1
    d = report.decompositions[0]
    assert d.error is not None  # the tuple sample joined by (time, offset)
    assert report.p90_abs_error is not None
    assert report.windows and report.windows[0].count == 1


def test_truth_join_requires_exact_key():
    records = exchange_records()
    report = explain_run(
        snapshot_of(records), samples=[(10.5, 0.0040001, 0.001)]
    )
    assert report.decompositions[0].error is None  # offset mismatch: no join


def test_worst_ranks_by_magnitude():
    records = []
    for i, offset in enumerate((0.001, 0.05, 0.01)):
        base = exchange_records(trace_id=f"c/{i}")
        base[0].data["offset"] = offset
        records.extend(base)
    report = explain_run(snapshot_of(records))
    assert [d.offset for d in report.worst(2)] == [0.05, 0.01]


def test_above_p90_all_attributed():
    records = []
    samples = []
    for i in range(20):
        base = exchange_records(trace_id=f"c/{i}")
        for r in base:
            for key in ("t0", "t1"):
                r.data[key] += i * 100.0
            r.time += i * 100.0
        offset = 0.001 * (i + 1)
        base[0].data["offset"] = offset
        records.extend(base)
        samples.append((base[0].data["t1"], offset, 0.002))
    report = explain_run(snapshot_of(records), samples=samples)
    above = report.above_p90()
    assert above  # spread of errors -> someone exceeds p90
    assert all(d.dominant_cause in CAUSES for d in above)


def test_windowed_aggregation_buckets_by_time():
    records = []
    for i, t_shift in enumerate((0.0, 100.0, 400.0)):
        base = exchange_records(trace_id=f"c/{i}")
        for r in base:
            for key in ("t0", "t1"):
                r.data[key] += t_shift
            r.time += t_shift
        records.extend(base)
    report = explain_run(snapshot_of(records), window_s=300.0)
    assert [w.count for w in report.windows] == [2, 1]
    assert report.windows[0].t0 == 0.0
    assert report.windows[1].t0 == 300.0


@pytest.mark.parametrize("window_s", [0.0, -1.0, math.inf, math.nan])
def test_window_must_be_positive_and_finite(window_s):
    with pytest.raises(ValueError, match="window"):
        explain_run(snapshot_of(exchange_records()), window_s=window_s)


def test_report_to_dict_and_text_render():
    report = explain_run(
        snapshot_of(exchange_records()), samples=[(10.5, 0.004, 0.001)]
    )
    doc = report.to_dict()
    assert doc["format"] == "mntp-explain-v1"
    assert doc["coverage"] == 1.0
    assert doc["worst"][0]["dominant_cause"] in CAUSES
    text = report.render_text()
    assert "100.0% coverage" in text
    assert "cause=" in text


def test_render_tree_shows_all_children():
    records = exchange_records()
    records.append(span_record(
        "channel.interference", 10.1, 10.3,
        rssi_dip_db=9.0, noise_lift_db=3.0,
    ))
    ex = assemble_exchanges(snapshot_of(records))[0]
    text = render_tree(ex, decompose(ex, truth=0.001))
    assert "sntp.exchange c/1" in text
    assert "link.transit request" in text
    assert "link.transit response" in text
    assert "server.turnaround" in text
    assert "channel.interference" in text
    assert "decomposition" in text


def test_seeded_run_attributes_every_sample_above_p90():
    from repro.testbed.specs import run_scenario

    result = run_scenario("wireless_uncorrected", seed=5)
    report = explain_run(result.telemetry, samples=result.offset_samples())
    assert report.coverage >= 0.95
    above = report.above_p90()
    assert above, "expected offset errors above the p90"
    assert all(d.dominant_cause in CAUSES for d in above)
    # Ground truth joined for every SNTP sample, so the residual
    # (server term) closes the decomposition exactly.
    for d in above:
        assert abs(
            d.error - (d.asymmetry + d.queueing + d.interference
                       + d.server_turnaround)
        ) < 1e-12


def test_same_seed_runs_byte_identical_without_resets():
    # Two runs in ONE process, no manual ident/telemetry resets: the
    # telemetry JSONL and the explain JSON must match byte for byte.
    from repro.obs.exporters import jsonl_lines
    from repro.testbed.specs import run_scenario

    a = run_scenario("wireless_uncorrected", seed=7)
    b = run_scenario("wireless_uncorrected", seed=7)
    jsonl_a = "\n".join(jsonl_lines(a.telemetry))
    jsonl_b = "\n".join(jsonl_lines(b.telemetry))
    assert jsonl_a == jsonl_b
    explain_a = json.dumps(
        explain_run(a.telemetry, samples=a.offset_samples()).to_dict(),
        sort_keys=True,
    )
    explain_b = json.dumps(
        explain_run(b.telemetry, samples=b.offset_samples()).to_dict(),
        sort_keys=True,
    )
    assert explain_a == explain_b
