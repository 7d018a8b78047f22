"""Robustness and failure-injection tests.

Decoders must reject garbage gracefully, protocols must survive hostile
or dead server populations, and nothing may crash on malformed input.
"""

import io

import pytest
from hypothesis import given, strategies as st

from repro.ntp.packet import NtpPacket
from repro.ntp.server import ServerConfig, ServerPersona
from repro.pcaplib.ntpdissect import dissect_ntp_packet
from repro.pcaplib.pcap import PcapReader
from repro.ptp.messages import PtpHeader
from repro.simcore.simulator import Simulator
from repro.tuner.traces import TraceEntry
from tests.ntp.helpers import MiniNet


@given(st.binary(max_size=200))
def test_ntp_decode_never_crashes_unexpectedly(data):
    """Any byte string either parses or raises ValueError — nothing else."""
    try:
        NtpPacket.decode(data)
    except ValueError:
        pass


@given(st.binary(max_size=400))
def test_dissector_never_crashes(data):
    """The dissector returns a dissection or None for arbitrary bytes."""
    result = dissect_ntp_packet(data)
    assert result is None or result.packet is not None


@given(st.binary(max_size=300))
def test_ptp_decode_never_crashes_unexpectedly(data):
    try:
        PtpHeader.decode(data)
    except ValueError:
        pass


@given(st.binary(min_size=24, max_size=200))
def test_pcap_reader_never_crashes_unexpectedly(data):
    try:
        reader = PcapReader(io.BytesIO(data))
        list(reader)
    except ValueError:
        pass


@given(st.text(max_size=200))
def test_trace_entry_rejects_bad_json(text):
    try:
        TraceEntry.from_json(text)
    except ValueError:  # json.JSONDecodeError included
        pass


def test_mutated_valid_packet_fuzz():
    """Flip every single byte of a valid NTP packet; decode must either
    succeed or raise ValueError."""
    base = bytearray(NtpPacket.ntp_request(1_460_000_000.0).encode())
    for i in range(len(base)):
        mutated = bytearray(base)
        mutated[i] ^= 0xFF
        try:
            NtpPacket.decode(bytes(mutated), pivot_unix=1_460_000_000.0)
        except ValueError:
            pass


def test_client_ignores_stray_datagrams():
    sim = Simulator(seed=1)
    net = MiniNet(sim, [ServerConfig(name="s1", processing_delay=1e-6)])
    from repro.net.message import Datagram

    # Garbage, short, and unsolicited-valid datagrams must all be ignored.
    net.client.on_datagram(Datagram(payload=b"x", src="?", dst="client"))
    net.client.on_datagram(Datagram(payload=b"\x00" * 48, src="?", dst="client"))
    valid = NtpPacket(mode=NtpPacket().mode.SERVER if False else NtpPacket.decode(
        NtpPacket.sntp_request(1.0).encode()).mode, transmit_ts=1.0)
    assert net.client.responses_received == 0


def test_all_servers_unresponsive_mntp_survives():
    from repro.clock.discipline_api import ClockCorrector
    from repro.core.config import MntpConfig
    from repro.core.protocol import Mntp
    from repro.wireless.hints import ALWAYS_FAVORABLE, StaticHintProvider

    sim = Simulator(seed=1)
    configs = [
        ServerConfig(name=name, persona=ServerPersona.UNRESPONSIVE,
                     drop_rate=1.0)
        for name in ("0.pool.ntp.org", "1.pool.ntp.org", "3.pool.ntp.org")
    ]
    net = MiniNet(sim, configs)
    mntp = Mntp(
        sim, net.client, StaticHintProvider(ALWAYS_FAVORABLE),
        ClockCorrector(net.client_clock),
        config=MntpConfig(
            warmup_period=300.0, warmup_wait_time=10.0,
            regular_wait_time=30.0, reset_period=1000.0,
            min_warmup_samples=5, query_timeout=1.0,
        ),
    )
    mntp.start()
    sim.run_until(600.0)
    # No responses, no acceptances, no crash; the clock is untouched.
    assert mntp.accepted_offsets() == []
    assert net.client_clock.step_count == 0
    failed = sim.trace.select(component="mntp", kind="query_failed")
    assert failed


def test_all_falsetickers_discipline_holds_clock():
    """With every upstream lying by the same amount in one direction,
    the intersection algorithm cannot detect it (no honest majority
    exists) — but with *disagreeing* liars, no majority forms and the
    daemon refuses to update."""
    from repro.clock.discipline_api import ClockCorrector
    from repro.ntp.discipline import ClockDiscipline

    sim = Simulator(seed=1)
    configs = [
        ServerConfig(name=f"liar{i}", persona=ServerPersona.FALSETICKER,
                     falseticker_bias=(i + 1) * 2.0, processing_delay=1e-6)
        for i in range(4)
    ]
    net = MiniNet(sim, configs)
    discipline = ClockDiscipline(
        sim, net.client, ClockCorrector(net.client_clock),
        [c.name for c in configs],
    )
    discipline.start()
    sim.run_until(600.0)
    # Liars at +2/+4/+6/+8 s with ms-scale radii share no intersection:
    # no truechimers, no clock updates.
    assert discipline.updates == 0
    assert abs(net.client_clock.true_offset()) < 0.001


def test_duplicate_response_ignored():
    sim = Simulator(seed=1)
    net = MiniNet(sim, [ServerConfig(name="s1", processing_delay=1e-6)])
    results = []
    net.client.query("s1", results.append)
    sim.run_until(1.0)
    assert len(results) == 1
    # Replay the same response: the pending entry is gone, so nothing
    # happens (no crash, no double callback).
    # Reconstruct a response-like datagram from the server reply path.
    from repro.net.message import Datagram
    from repro.ntp.constants import Mode

    response = NtpPacket(
        mode=Mode.SERVER, stratum=2, origin_ts=results[0].sample.t1,
        receive_ts=1.0, transmit_ts=1.0,
    )
    net.client.on_datagram(
        Datagram(payload=response.encode(), src="s1", dst="client",
                 dst_port=10_000)
    )
    assert len(results) == 1
