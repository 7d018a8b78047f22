"""RFC 5905 packet header encode/decode.

The 48-byte header::

     0                   1                   2                   3
     0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1
    +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
    |LI | VN  |Mode |    Stratum     |     Poll      |  Precision   |
    +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
    |                         Root Delay                            |
    |                       Root Dispersion                         |
    |                          Reference ID                         |
    |                     Reference Timestamp (64)                  |
    |                      Origin Timestamp (64)                    |
    |                      Receive Timestamp (64)                   |
    |                      Transmit Timestamp (64)                  |
    +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+

SNTP (RFC 4330) clients "set all fields to zero except the first octet"
(and the transmit timestamp); :meth:`NtpPacket.sntp_request` builds
exactly that shape, which is also what the log-study classifier keys on.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Optional

from repro.ntp.constants import LeapIndicator, Mode, NTP_HEADER_LEN, Version
from repro.ntp.timestamps import (
    short_from_word,
    short_word,
    timestamp_from_words,
    timestamp_words,
)

#: The whole header in one call: first octet, stratum, poll, precision,
#: root delay and dispersion (16.16 words), reference id, then the
#: (seconds, fraction) words of the four timestamps.
_HEADER = struct.Struct("!BBbbII4sIIIIIIII")
assert _HEADER.size == NTP_HEADER_LEN

#: Enum members indexed by their wire value (every value has a member).
_LEAPS = tuple(LeapIndicator)
_MODES = tuple(Mode)
assert list(_LEAPS) == list(range(4)) and list(_MODES) == list(range(8))

#: Integer fields and the ranges their wire slots hold.
_INT_RANGES = (("stratum", 0, 255), ("poll", -128, 127), ("precision", -128, 127))

#: The words of an unset (``None``) timestamp: the wire zero sentinel.
_ZERO_WORDS = (0, 0)


@dataclass
class NtpPacket:
    """A parsed or to-be-encoded NTP packet.

    Timestamps are Unix-second floats; ``None`` encodes as the wire zero
    sentinel.  ``precision`` is the signed log2-seconds exponent.
    """

    leap: LeapIndicator = LeapIndicator.NO_WARNING
    version: int = Version.V4
    mode: Mode = Mode.CLIENT
    stratum: int = 0
    poll: int = 0
    precision: int = -20
    root_delay: float = 0.0
    root_dispersion: float = 0.0
    ref_id: bytes = b"\x00\x00\x00\x00"
    reference_ts: Optional[float] = None
    origin_ts: Optional[float] = None
    receive_ts: Optional[float] = None
    transmit_ts: Optional[float] = None

    def __post_init__(self) -> None:
        if not 0 <= int(self.stratum) <= 255:
            raise ValueError(f"stratum out of range: {self.stratum}")
        if not 1 <= int(self.version) <= 7:
            raise ValueError(f"version out of range: {self.version}")
        if len(self.ref_id) != 4:
            raise ValueError("ref_id must be exactly 4 bytes")
        if not -128 <= int(self.poll) <= 127:
            raise ValueError(f"poll out of range: {self.poll}")
        if not -128 <= int(self.precision) <= 127:
            raise ValueError(f"precision out of range: {self.precision}")

    # -- construction helpers -------------------------------------------------

    @classmethod
    def sntp_request(cls, transmit_unix: float, version: int = Version.V3) -> "NtpPacket":
        """Build the minimal SNTP client request (first octet + xmt only)."""
        return cls(
            leap=LeapIndicator.NO_WARNING,
            version=version,
            mode=Mode.CLIENT,
            stratum=0,
            poll=0,
            precision=0,
            transmit_ts=transmit_unix,
        )

    @classmethod
    def ntp_request(
        cls,
        transmit_unix: float,
        poll: int = 6,
        precision: int = -20,
        version: int = Version.V4,
    ) -> "NtpPacket":
        """Build a full-NTP client request (non-zero poll/precision —
        the wire difference the log classifier uses)."""
        return cls(
            leap=LeapIndicator.NO_WARNING,
            version=version,
            mode=Mode.CLIENT,
            stratum=2,
            poll=poll,
            precision=precision,
            transmit_ts=transmit_unix,
        )

    # -- codec ------------------------------------------------------------------

    def encode(self) -> bytes:
        """Serialise to the 48-byte wire format.

        Raises:
            ValueError: naming the field that has no wire form (out of
                range, negative or non-finite).
        """
        if len(self.ref_id) != 4:
            raise ValueError("ref_id must be exactly 4 bytes")
        ref, org = self.reference_ts, self.origin_ts
        rec, xmt = self.receive_ts, self.transmit_ts
        try:
            return _HEADER.pack(
                (int(self.leap) & 0x3) << 6
                | (int(self.version) & 0x7) << 3
                | (int(self.mode) & 0x7),
                int(self.stratum),
                int(self.poll),
                int(self.precision),
                short_word(self.root_delay),
                short_word(self.root_dispersion),
                self.ref_id,
                *(_ZERO_WORDS if ref is None else timestamp_words(ref)),
                *(_ZERO_WORDS if org is None else timestamp_words(org)),
                *(_ZERO_WORDS if rec is None else timestamp_words(rec)),
                *(_ZERO_WORDS if xmt is None else timestamp_words(xmt)),
            )
        except (OverflowError, TypeError, ValueError, struct.error) as exc:
            raise self._encode_error(exc) from None

    def _encode_error(self, exc: Exception) -> ValueError:
        """The error naming the first field :meth:`encode` cannot pack."""
        for name, low, high in _INT_RANGES:
            value = getattr(self, name)
            if not low <= int(value) <= high:
                return ValueError(f"{name} out of range: {value}")
        for name in ("root_delay", "root_dispersion"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                return ValueError(f"{name} must be a finite non-negative duration: {value}")
        for name in ("reference_ts", "origin_ts", "receive_ts", "transmit_ts"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                return ValueError(f"{name} must be finite: {value}")
        return ValueError(f"cannot encode NTP packet: {exc}")

    @classmethod
    def decode(cls, data: bytes, pivot_unix: float = 0.0) -> "NtpPacket":
        """Parse a wire packet (ignores any extension fields past 48 B).

        Args:
            data: At least 48 bytes.
            pivot_unix: Era-resolution pivot for timestamp decoding.
        """
        if len(data) < NTP_HEADER_LEN:
            raise ValueError(f"NTP packet too short: {len(data)} bytes")
        (
            first, stratum, poll, precision, delay, dispersion, ref_id,
            ref_s, ref_f, org_s, org_f, rec_s, rec_f, xmt_s, xmt_f,
        ) = _HEADER.unpack_from(data)
        return cls(
            _LEAPS[first >> 6],
            (first >> 3) & 0x7,
            _MODES[first & 0x7],
            stratum,
            poll,
            precision,
            short_from_word(delay),
            short_from_word(dispersion),
            ref_id,
            timestamp_from_words(ref_s, ref_f, pivot_unix) if ref_s or ref_f else None,
            timestamp_from_words(org_s, org_f, pivot_unix) if org_s or org_f else None,
            timestamp_from_words(rec_s, rec_f, pivot_unix) if rec_s or rec_f else None,
            timestamp_from_words(xmt_s, xmt_f, pivot_unix) if xmt_s or xmt_f else None,
        )

    # -- classification helpers (used by the log study) ---------------------------

    def looks_like_sntp_request(self) -> bool:
        """Heuristic used in §3.1: SNTP requests zero everything except
        the first octet (and carry a transmit timestamp)."""
        return (
            self.mode == Mode.CLIENT
            and self.stratum == 0
            and self.poll == 0
            and self.precision == 0
            and self.root_delay == 0.0
            and self.root_dispersion == 0.0
            and self.origin_ts is None
            and self.receive_ts is None
        )

    def is_kiss_of_death(self) -> bool:
        """Stratum-0 server responses are KoD packets."""
        return self.mode == Mode.SERVER and self.stratum == 0
