"""The registered span taxonomy."""

from repro.obs.taxonomy import (
    SPAN_KINDS,
    SPAN_SUBSYSTEMS,
    span_kind_registered,
    span_subsystem,
)


def test_every_kind_belongs_to_a_known_subsystem():
    for kind in SPAN_KINDS:
        assert "." in kind
        assert span_subsystem(kind) in SPAN_SUBSYSTEMS


def test_kind_registration():
    assert span_kind_registered("sntp.exchange")
    assert span_kind_registered("link.transit")
    assert span_kind_registered("server.turnaround")
    assert not span_kind_registered("sntp.mystery")


def test_emitted_kinds_in_seeded_run_are_all_registered():
    from repro.obs.telemetry import snapshot_span_kinds
    from repro.testbed.specs import run_scenario

    result = run_scenario("mntp_wireless_corrected", seed=1)
    assert set(snapshot_span_kinds(result.telemetry)) <= SPAN_KINDS
