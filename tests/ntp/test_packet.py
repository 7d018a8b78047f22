"""RFC 5905 packet codec."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.ntp.constants import LeapIndicator, Mode, NTP_HEADER_LEN, REFID_RATE
from repro.ntp.packet import NtpPacket
from repro.ntp.timestamps import (
    ZERO_TIMESTAMP,
    decode_short,
    decode_timestamp,
    encode_short,
    encode_timestamp,
)


def test_encode_length():
    assert len(NtpPacket().encode()) == NTP_HEADER_LEN


def test_sntp_request_shape():
    p = NtpPacket.sntp_request(1000.0)
    assert p.mode == Mode.CLIENT
    assert p.stratum == 0
    assert p.poll == 0
    assert p.precision == 0
    assert p.transmit_ts == 1000.0
    assert p.origin_ts is None
    assert p.looks_like_sntp_request()


def test_ntp_request_not_sntp_shaped():
    p = NtpPacket.ntp_request(1000.0)
    assert not p.looks_like_sntp_request()


def test_roundtrip_full_packet():
    p = NtpPacket(
        leap=LeapIndicator.LAST_MINUTE_61,
        version=4,
        mode=Mode.SERVER,
        stratum=2,
        poll=6,
        precision=-20,
        root_delay=0.015,
        root_dispersion=0.030,
        ref_id=b"GPS\x00",
        reference_ts=999.0,
        origin_ts=1000.0,
        receive_ts=1000.5,
        transmit_ts=1000.6,
    )
    q = NtpPacket.decode(p.encode(), pivot_unix=1000.0)
    assert q.leap == p.leap
    assert q.version == p.version
    assert q.mode == p.mode
    assert q.stratum == p.stratum
    assert q.poll == p.poll
    assert q.precision == p.precision
    assert q.root_delay == pytest.approx(p.root_delay, abs=1e-4)
    assert q.root_dispersion == pytest.approx(p.root_dispersion, abs=1e-4)
    assert q.ref_id == p.ref_id
    assert q.origin_ts == pytest.approx(1000.0, abs=1e-6)
    assert q.receive_ts == pytest.approx(1000.5, abs=1e-6)
    assert q.transmit_ts == pytest.approx(1000.6, abs=1e-6)


def test_none_timestamps_roundtrip_as_none():
    p = NtpPacket(transmit_ts=5.0)
    q = NtpPacket.decode(p.encode(), pivot_unix=5.0)
    assert q.origin_ts is None
    assert q.receive_ts is None
    assert q.reference_ts is None
    assert q.transmit_ts is not None


def test_decode_too_short():
    with pytest.raises(ValueError):
        NtpPacket.decode(b"\x00" * 47)


def test_decode_ignores_extensions():
    p = NtpPacket.sntp_request(1.0)
    padded = p.encode() + b"\xff" * 20
    q = NtpPacket.decode(padded, pivot_unix=1.0)
    assert q.looks_like_sntp_request()


def test_kiss_of_death():
    p = NtpPacket(mode=Mode.SERVER, stratum=0)
    assert p.is_kiss_of_death()
    assert not NtpPacket(mode=Mode.SERVER, stratum=2).is_kiss_of_death()


@pytest.mark.parametrize(
    "field, value",
    [
        ("stratum", 300),
        ("stratum", -1),
        ("poll", 200),
        ("precision", -129),
        ("root_delay", -0.5),
        ("root_dispersion", math.inf),
        ("root_delay", math.nan),
        ("transmit_ts", math.inf),
        ("origin_ts", -math.inf),
        ("receive_ts", math.nan),
        ("reference_ts", math.inf),
        ("ref_id", b"GPS"),
    ],
)
def test_encode_names_a_field_set_out_of_range(field, value):
    p = NtpPacket.ntp_request(1000.0)
    setattr(p, field, value)
    with pytest.raises(ValueError, match=field):
        p.encode()


def test_invalid_fields_rejected():
    with pytest.raises(ValueError):
        NtpPacket(stratum=300)
    with pytest.raises(ValueError):
        NtpPacket(ref_id=b"too long")
    with pytest.raises(ValueError):
        NtpPacket(poll=200)
    with pytest.raises(ValueError):
        NtpPacket(version=0)


@given(
    leap=st.sampled_from(list(LeapIndicator)),
    version=st.integers(1, 7),
    mode=st.sampled_from(list(Mode)),
    stratum=st.integers(0, 255),
    poll=st.integers(-128, 127),
    precision=st.integers(-128, 127),
)
def test_first_four_bytes_roundtrip_property(leap, version, mode, stratum, poll, precision):
    p = NtpPacket(
        leap=leap, version=version, mode=mode, stratum=stratum,
        poll=poll, precision=precision,
    )
    q = NtpPacket.decode(p.encode())
    assert (q.leap, q.version, q.mode, q.stratum, q.poll, q.precision) == (
        leap, version, mode, stratum, poll, precision,
    )


# -- exact wire vectors ---------------------------------------------------------
#
# A round trip alone passes a field swap made in both encode and decode;
# these 48-byte vectors pin the wire layout, and the decoded floats are
# compared with ``==`` at the stated pivot.

VECTOR_PIVOT = 1_700_000_000.0

SNTP_REQUEST_HEX = (
    "1b000000" "00000000" "00000000" "00000000"
    "0000000000000000" "0000000000000000" "0000000000000000"
    "e8fe6f8040000000"
)
NTP_REQUEST_HEX = (
    "230206ec" "00000000" "00000000" "00000000"
    "0000000000000000" "0000000000000000" "0000000000000000"
    "e8fe6f8080000000"
)
SERVER_REPLY_HEX = (
    "240206ec" "00000400" "000007ae" "c0000201"
    "e8fe6f4000000000" "e8fe6f8040000000" "e8fe6f8100000000"
    "e8fe6f811f9ad000"
)
KOD_REPLY_HEX = (
    "e4000aec" "00000000" "00000000" "52415445"
    "0000000000000000" "e8fe6f8040000000" "0000000000000000"
    "e8fe6f8040000000"
)


def _fields(p):
    return (
        p.leap, p.version, p.mode, p.stratum, p.poll, p.precision,
        p.root_delay, p.root_dispersion, p.ref_id,
        p.reference_ts, p.origin_ts, p.receive_ts, p.transmit_ts,
    )


def test_sntp_request_wire_vector():
    wire = NtpPacket.sntp_request(1_700_000_000.25).encode()
    assert wire.hex() == SNTP_REQUEST_HEX
    q = NtpPacket.decode(bytes.fromhex(SNTP_REQUEST_HEX), pivot_unix=VECTOR_PIVOT)
    assert _fields(q) == (
        LeapIndicator.NO_WARNING, 3, Mode.CLIENT, 0, 0, 0,
        0.0, 0.0, b"\x00\x00\x00\x00", None, None, None, 1_700_000_000.25,
    )
    assert q.looks_like_sntp_request()


def test_ntp_request_wire_vector():
    wire = NtpPacket.ntp_request(1_700_000_000.5).encode()
    assert wire.hex() == NTP_REQUEST_HEX
    q = NtpPacket.decode(bytes.fromhex(NTP_REQUEST_HEX), pivot_unix=VECTOR_PIVOT)
    assert _fields(q) == (
        LeapIndicator.NO_WARNING, 4, Mode.CLIENT, 2, 6, -20,
        0.0, 0.0, b"\x00\x00\x00\x00", None, None, None, 1_700_000_000.5,
    )
    assert not q.looks_like_sntp_request()


def test_server_reply_wire_vector():
    # The receive stamp's fraction carries into the next whole second:
    # at this magnitude the Unix-to-NTP float sum has a 2**-21 s step.
    reply = NtpPacket(
        leap=LeapIndicator.NO_WARNING, version=4, mode=Mode.SERVER,
        stratum=2, poll=6, precision=-20,
        root_delay=0.015625, root_dispersion=0.03, ref_id=b"\xc0\x00\x02\x01",
        reference_ts=1_699_999_936.0, origin_ts=1_700_000_000.25,
        receive_ts=1_700_000_000.9999999, transmit_ts=1_700_000_001.123456,
    )
    assert reply.encode().hex() == SERVER_REPLY_HEX
    q = NtpPacket.decode(bytes.fromhex(SERVER_REPLY_HEX), pivot_unix=VECTOR_PIVOT)
    assert _fields(q) == (
        LeapIndicator.NO_WARNING, 4, Mode.SERVER, 2, 6, -20,
        0.015625, 0.029998779296875, b"\xc0\x00\x02\x01",
        1_699_999_936.0, 1_700_000_000.25, 1_700_000_001.0, 1_700_000_001.123456,
    )
    assert q.encode().hex() == SERVER_REPLY_HEX


def test_server_reply_vector_resolves_era_at_pivot():
    q = NtpPacket.decode(
        bytes.fromhex(SERVER_REPLY_HEX), pivot_unix=VECTOR_PIVOT + 2**32
    )
    assert q.transmit_ts == 1_700_000_001.123456 + 2**32
    assert q.reference_ts == 1_699_999_936.0 + 2**32


def test_kod_reply_wire_vector():
    kod = NtpPacket(
        leap=LeapIndicator.ALARM, version=4, mode=Mode.SERVER,
        stratum=0, poll=10, precision=-20, ref_id=REFID_RATE,
        origin_ts=1_700_000_000.25, transmit_ts=1_700_000_000.25,
    )
    assert kod.encode().hex() == KOD_REPLY_HEX
    q = NtpPacket.decode(bytes.fromhex(KOD_REPLY_HEX), pivot_unix=VECTOR_PIVOT)
    assert _fields(q) == (
        LeapIndicator.ALARM, 4, Mode.SERVER, 0, 10, -20,
        0.0, 0.0, b"RATE", None, 1_700_000_000.25, None, 1_700_000_000.25,
    )
    assert q.is_kiss_of_death()


_stamps = st.none() | st.floats(min_value=0.0, max_value=4e9)


@given(
    delay=st.floats(min_value=0.0, max_value=7e4),
    dispersion=st.floats(min_value=0.0, max_value=7e4),
    ref_id=st.binary(min_size=4, max_size=4),
    stamps=st.tuples(_stamps, _stamps, _stamps, _stamps),
    pivot=st.floats(min_value=0.0, max_value=4e9),
)
def test_header_matches_the_per_field_codecs(delay, dispersion, ref_id, stamps, pivot):
    # Reference: the header assembled from timestamps.py's per-field codecs.
    p = NtpPacket(
        mode=Mode.SERVER, stratum=2, poll=6, precision=-20,
        root_delay=delay, root_dispersion=dispersion, ref_id=ref_id,
        reference_ts=stamps[0], origin_ts=stamps[1],
        receive_ts=stamps[2], transmit_ts=stamps[3],
    )
    wire = p.encode()
    assert wire == bytes.fromhex("240206ec") + encode_short(delay) + encode_short(
        dispersion
    ) + ref_id + b"".join(
        ZERO_TIMESTAMP if t is None else encode_timestamp(t) for t in stamps
    )
    q = NtpPacket.decode(wire, pivot_unix=pivot)
    assert (q.root_delay, q.root_dispersion) == (
        decode_short(wire[4:8]), decode_short(wire[8:12])
    )
    chunks = [wire[i:i + 8] for i in range(16, 48, 8)]
    assert [q.reference_ts, q.origin_ts, q.receive_ts, q.transmit_ts] == [
        None if c == ZERO_TIMESTAMP else decode_timestamp(c, pivot_unix=pivot)
        for c in chunks
    ]
