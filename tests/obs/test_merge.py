"""Shard merge: canonical order-independence and identity properties."""

import io
import itertools
import json

import pytest

from repro.obs import (
    Telemetry,
    content_id,
    iter_merged_records,
    make_shard,
    merge_documents,
    stream_jsonl,
    write_merged_jsonl,
)


def build_snapshot(seed, spans=2, events=3):
    """A small deterministic snapshot distinct per seed."""
    telemetry = Telemetry.standalone(start=float(seed))
    telemetry.metrics.counter("q_total", help="queries").inc(seed + 1)
    telemetry.metrics.gauge("drift_ppm").set(float(seed))
    hist = telemetry.metrics.histogram("lat_ms", buckets=(1.0, 10.0))
    for i in range(events):
        hist.observe(float(seed * 10 + i))
        telemetry.trace.emit(
            float(seed + i), "mntp", "offset_accepted",
            offset=seed * 0.001, trace_id=f"tn-{seed}/{i}",
        )
    for _ in range(spans):
        span = telemetry.spans.begin("mntp.query")
        telemetry.advance()
        span.end(outcome="ok")
    return telemetry.snapshot()


def shard_envelopes(n=3):
    return [
        make_shard(build_snapshot(seed), f"shard-{seed:04d}")
        for seed in range(n)
    ]


def merged_bytes(documents):
    buf = io.StringIO()
    write_merged_jsonl(documents, buf)
    return buf.getvalue()


def test_any_permutation_is_byte_identical():
    shards = shard_envelopes(3)
    reference = merged_bytes(shards)
    for permutation in itertools.permutations(shards):
        assert merged_bytes(list(permutation)) == reference
        assert merge_documents(list(permutation)) == merge_documents(shards)


def test_merge_single_shard_is_identity():
    snapshot = build_snapshot(1)
    merged = merge_documents([make_shard(snapshot, "only")])
    assert merged["metrics"] == snapshot["metrics"]
    assert merged["records"] == snapshot["records"]
    # Bare snapshots are accepted too, with the same identity.
    assert merge_documents([snapshot])["records"] == snapshot["records"]


def test_merged_jsonl_equals_merge_then_export():
    # The streaming path and the materialising path must agree byte
    # for byte.
    from repro.obs import write_jsonl

    shards = shard_envelopes(2)
    streamed = merged_bytes(shards)
    buf = io.StringIO()
    write_jsonl(merge_documents(shards), buf)
    assert streamed == buf.getvalue()


def test_counters_sum_and_histograms_bucket_merge():
    shards = shard_envelopes(2)
    merged = {m["name"]: m for m in merge_documents(shards)["metrics"]}
    assert merged["q_total"]["value"] == 1 + 2  # inc(seed + 1) per shard
    hist = merged["lat_ms"]
    assert hist["count"] == 6
    assert sum(hist["bucket_counts"]) == 6


def test_gauge_last_writer_wins_deterministically():
    a = build_snapshot(0)
    b = build_snapshot(5)
    merged = {
        m["name"]: m
        for m in merge_documents(
            [make_shard(a, "a"), make_shard(b, "b")]
        )["metrics"]
    }
    gauge = merged["drift_ppm"]
    # Equal update counts: the larger value breaks the tie.
    assert gauge["value"] == 5.0
    assert gauge["updates"] == 2


def test_within_shard_order_is_preserved():
    snapshot = build_snapshot(0)
    # Span records are stamped at begin time but appended at end time,
    # so a plain time sort would reorder them; the monotonised merge
    # must not.
    shards = [("only", snapshot)]
    assert list(iter_merged_records(shards)) == snapshot["records"]


def test_conflicting_shard_ids_rejected():
    a = make_shard(build_snapshot(0), "same")
    b = make_shard(build_snapshot(1), "same")
    with pytest.raises(ValueError, match="conflicting"):
        merge_documents([a, b])
    # The exact same shard twice deduplicates instead.
    merged = merge_documents([a, a])
    assert merged["records"] == build_snapshot(0)["records"]


def test_invalid_documents_rejected():
    with pytest.raises(ValueError):
        merge_documents([])
    with pytest.raises(ValueError, match="expected"):
        merge_documents([{"format": "something-else"}])
    with pytest.raises(ValueError):
        make_shard({"format": "not-telemetry"}, "x")


def test_histogram_bound_mismatch_rejected():
    a = Telemetry.standalone()
    a.metrics.histogram("h_ms", buckets=(1.0,)).observe(0.5)
    b = Telemetry.standalone()
    b.metrics.histogram("h_ms", buckets=(2.0,)).observe(0.5)
    with pytest.raises(ValueError, match="bounds"):
        merge_documents(
            [make_shard(a.snapshot(), "a"), make_shard(b.snapshot(), "b")]
        )


def test_content_id_stable_for_bare_snapshots():
    snapshot = build_snapshot(2)
    assert content_id(snapshot) == content_id(json.loads(json.dumps(snapshot)))
    assert content_id(snapshot) != content_id(build_snapshot(3))


def test_sampling_and_exemplars_merge():
    def sampled(seed):
        telemetry = Telemetry(
            now_fn=lambda: 0.0, ring_capacity=8, sample_rate=4
        )
        for i in range(40):
            telemetry.emit(
                float(i), "mntp", "exchange", trace_id=f"tn-{seed}/{i}"
            )
            telemetry.observe_exemplar("lat_ms", float(i), ref=f"tn-{seed}/{i}")
        return telemetry.snapshot()

    shards = [make_shard(sampled(s), f"s{s}") for s in range(2)]
    merged = merge_documents(shards)
    sampling = merged["sampling"]
    assert sampling["rate"] == 4
    assert sampling["kept"] + sampling["dropped"] == 80
    reservoir = merged["exemplars"]["lat_ms"]
    assert reservoir["seen"] == 80
    assert len(reservoir["entries"]) <= reservoir["capacity"]


def test_stream_jsonl_matches_snapshot_export():
    from repro.obs import write_jsonl

    telemetry = Telemetry(now_fn=lambda: 0.0, ring_capacity=8, sample_rate=2)
    for i in range(10):
        telemetry.emit(float(i), "mntp", "exchange", trace_id=f"tn-x/{i}")
        telemetry.count("x_total")
    streamed = io.StringIO()
    lines = stream_jsonl(telemetry, streamed)
    materialised = io.StringIO()
    assert lines == write_jsonl(telemetry.snapshot(), materialised)
    assert streamed.getvalue() == materialised.getvalue()
