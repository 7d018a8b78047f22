"""Causal exchange assembly: joining spans back into trees."""

from repro.obs.causal import Exchange, Hop, assemble_exchanges, completeness
from repro.simcore.trace import TraceRecord


def span_record(kind, t0, t1, **attrs):
    return TraceRecord(
        t0, "span", kind, {"t0": t0, "t1": t1, "dur": t1 - t0, **attrs}
    )


def exchange_records(
    trace_id="c/1",
    outcome="ok",
    with_request=True,
    with_turnaround=True,
    with_response=True,
):
    records = [
        span_record(
            "sntp.exchange", 10.0, 10.5,
            trace_id=trace_id, client="c", server="srv#0",
            outcome=outcome, offset=0.004, delay=0.08,
        )
    ]
    if with_request:
        records.append(span_record(
            "link.transit", 10.0, 10.04,
            link="up:srv", ident=1, trace_id=trace_id,
            prop_s=0.01, queue_s=0.02, intf_s=0.01,
        ))
    if with_turnaround:
        records.append(span_record(
            "server.turnaround", 10.04, 10.05,
            server="srv#0", trace_id=trace_id, outcome=outcome,
        ))
    if with_response:
        records.append(span_record(
            "link.transit", 10.05, 10.09,
            link="down:srv", ident=2, trace_id=trace_id,
            prop_s=0.01, queue_s=0.01, intf_s=0.02,
        ))
    return records


def snapshot_of(records):
    return {"format": "mntp-telemetry-v1", "records": records}


def test_assembles_complete_ok_exchange():
    snap = snapshot_of(exchange_records())
    exchanges = assemble_exchanges(snap)
    assert len(exchanges) == 1
    ex = exchanges[0]
    assert ex.trace_id == "c/1"
    assert ex.outcome == "ok"
    assert ex.offset == 0.004
    assert ex.request_hop.link == "up:srv"
    assert ex.response_hop.link == "down:srv"
    assert ex.turnaround.server == "srv#0"
    assert ex.complete
    assert completeness(exchanges) == 1.0


def test_hop_classification_by_direction_prefix():
    # Response hop emitted first: the name prefix, not arrival order,
    # must classify the hops.
    records = exchange_records()
    records[1], records[3] = records[3], records[1]
    ex = assemble_exchanges(snapshot_of(records))[0]
    assert ex.request_hop.link == "up:srv"
    assert ex.response_hop.link == "down:srv"


def test_hop_classification_positional_fallback():
    records = exchange_records()
    for r in records:
        if r.kind == "link.transit":
            r.data["link"] = "wire"
    ex = assemble_exchanges(snapshot_of(records))[0]
    # Earlier span becomes the request hop.
    assert ex.request_hop.t0 == 10.0
    assert ex.response_hop.t0 == 10.05


def test_interference_episode_attached_by_overlap():
    records = exchange_records()
    records.append(span_record(
        "channel.interference", 10.2, 10.4,
        rssi_dip_db=12.0, noise_lift_db=6.0,
    ))
    records.append(span_record(  # entirely outside [t0, t1)
        "channel.interference", 99.0, 99.5,
        rssi_dip_db=1.0, noise_lift_db=1.0,
    ))
    ex = assemble_exchanges(snapshot_of(records))[0]
    assert len(ex.interference) == 1
    assert ex.interference[0].rssi_dip_db == 12.0


def test_timeout_complete_via_drop_record():
    records = [
        span_record(
            "sntp.exchange", 5.0, 8.0,
            trace_id="c/2", client="c", server=None, outcome="timeout",
        ),
        TraceRecord(
            5.1, "link:up:srv", "drop", {"trace_id": "c/2", "ident": 7}
        ),
    ]
    ex = assemble_exchanges(snapshot_of(records))[0]
    assert ex.outcome == "timeout"
    assert ex.drops and ex.drops[0]["ident"] == 7
    assert ex.complete


def test_timeout_complete_via_late_round_trip():
    records = exchange_records(trace_id="c/3", outcome="timeout")
    ex = assemble_exchanges(snapshot_of(records))[0]
    assert ex.complete  # reply exists, it just arrived after the timer


def test_timeout_without_evidence_is_incomplete():
    records = exchange_records(
        trace_id="c/4", outcome="timeout",
        with_turnaround=False, with_response=False,
    )
    ex = assemble_exchanges(snapshot_of(records))[0]
    assert not ex.complete
    assert completeness([ex]) == 0.0


def test_answered_failure_complete_with_server_side():
    records = exchange_records(
        trace_id="c/5", outcome="kod", with_response=False,
    )
    ex = assemble_exchanges(snapshot_of(records))[0]
    assert ex.complete  # the turnaround proves the server answered


def test_unresolved_exchange_never_complete():
    records = exchange_records(trace_id="c/6", outcome="unresolved")
    ex = assemble_exchanges(snapshot_of(records))[0]
    assert not ex.complete


def test_empty_snapshot():
    assert assemble_exchanges(snapshot_of([])) == []
    assert completeness([]) == 1.0


def test_hop_components_sum_to_duration():
    hop = Hop(
        link="up:x", ident=1, trace_id="c/1",
        t0=0.0, t1=0.04, prop_s=0.01, queue_s=0.02, intf_s=0.01,
    )
    assert abs(hop.dur - (hop.prop_s + hop.queue_s + hop.intf_s)) < 1e-12


def test_exchange_order_follows_root_emission_order():
    records = exchange_records(trace_id="c/2") + exchange_records(trace_id="c/1")
    ids = [e.trace_id for e in assemble_exchanges(snapshot_of(records))]
    assert ids == ["c/2", "c/1"]


def test_seeded_run_reconstructs_nearly_all_exchanges():
    from repro.testbed.specs import run_scenario

    result = run_scenario("wireless_uncorrected", seed=5)
    exchanges = assemble_exchanges(result.telemetry)
    assert exchanges, "run emitted no exchange spans"
    # Acceptance bar: >= 95% of exchanges come back as complete trees.
    assert completeness(exchanges) >= 0.95
    # Every reported SNTP sample corresponds to exactly one ok exchange.
    oks = [e for e in exchanges if e.outcome == "ok"]
    assert len(oks) >= len(result.sntp)
    by_key = {(e.t1, e.offset) for e in oks}
    matched = sum(1 for p in result.sntp if (p.time, p.offset) in by_key)
    assert matched == len(result.sntp)


def test_cellular_run_assembles_without_link_spans():
    # The cellular RAN path bypasses Link entirely: an exchange with no
    # link.transit span still assembles (turnaround only); it is just
    # not complete.
    records = exchange_records(with_request=False, with_response=False)
    (ex,) = assemble_exchanges(snapshot_of(records))
    assert ex.outcome == "ok"
    assert ex.turnaround is not None
    assert ex.request_hop is None and ex.response_hop is None
    assert not ex.complete
