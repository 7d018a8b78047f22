"""NTP timestamp codecs.

RFC 5905 defines two on-wire time formats:

* the 64-bit **timestamp format**: 32 bits of seconds since the era
  epoch (era 0 = 1900-01-01) and 32 bits of fraction (units of 2^-32 s,
  ~233 ps resolution);
* the 32-bit **short format**: 16.16 fixed point, used for root delay
  and root dispersion.

All library-internal times are floats of Unix seconds; these helpers
convert at the wire boundary.  Era handling: encoding wraps modulo
2^32 seconds, decoding pins to era 0/1 via the customary pivot (values
with the high bit clear are interpreted as era 1, i.e. post-2036 —
irrelevant for this reproduction's simulated epochs but implemented for
correctness).
"""

from __future__ import annotations

import struct
from typing import Tuple

from repro.ntp.constants import NTP_UNIX_EPOCH_DELTA

_TWO32 = 2**32
_TWO16 = 2**16
_TIMESTAMP = struct.Struct("!II")
_SHORT = struct.Struct("!I")

#: Special value meaning "unknown/unset" on the wire.
ZERO_TIMESTAMP = b"\x00" * 8


def unix_to_ntp(unix_seconds: float) -> float:
    """Convert Unix seconds to NTP-era seconds (float)."""
    return unix_seconds + NTP_UNIX_EPOCH_DELTA


def ntp_to_unix(ntp_seconds: float) -> float:
    """Convert NTP-era seconds to Unix seconds (float)."""
    return ntp_seconds - NTP_UNIX_EPOCH_DELTA


def timestamp_words(unix_seconds: float) -> Tuple[int, int]:
    """The (seconds, fraction) words of the NTP timestamp of ``unix_seconds``.

    Negative-fraction rounding is handled by flooring the integer part;
    exactly 0.0 Unix time yields the era-0 1970 instant, not the wire
    "unset" sentinel — use :data:`ZERO_TIMESTAMP` for unset.  A
    non-finite input raises ``ValueError``.
    """
    ntp = unix_seconds + NTP_UNIX_EPOCH_DELTA  # unix_to_ntp, inlined (hot path)
    secs = int(ntp // 1)
    frac = round((ntp - secs) * _TWO32)
    if frac == _TWO32:  # rounding carried into the next second
        secs += 1
        frac = 0
    return secs % _TWO32, frac


def encode_timestamp(unix_seconds: float) -> bytes:
    """Encode Unix seconds as an 8-byte NTP timestamp (see :func:`timestamp_words`)."""
    return _TIMESTAMP.pack(*timestamp_words(unix_seconds))


def timestamp_from_words(secs: int, frac: int, pivot_unix: float = 0.0) -> float:
    """Unix seconds of the NTP timestamp whose words are ``secs``/``frac``.

    ``pivot_unix`` resolves the era as in :func:`decode_timestamp`.
    """
    unix = secs + frac / _TWO32 - NTP_UNIX_EPOCH_DELTA  # ntp_to_unix, inlined (hot path)
    if pivot_unix:
        # Shift by whole eras until within half an era of the pivot.
        while unix < pivot_unix - _TWO32 / 2:
            unix += _TWO32
        while unix > pivot_unix + _TWO32 / 2:
            unix -= _TWO32
    return unix


def decode_timestamp(data: bytes, pivot_unix: float = 0.0) -> float:
    """Decode an 8-byte NTP timestamp to Unix seconds.

    Args:
        data: Exactly 8 bytes.
        pivot_unix: A Unix time near the true value, used to resolve the
            32-bit era ambiguity.  The decoded instant is the one within
            +/- 2^31 seconds of the pivot.
    """
    if len(data) != 8:
        raise ValueError(f"NTP timestamp must be 8 bytes, got {len(data)}")
    secs, frac = _TIMESTAMP.unpack(data)
    return timestamp_from_words(secs, frac, pivot_unix)


def is_zero_timestamp(data: bytes) -> bool:
    """Whether the 8 bytes are the wire 'unset' sentinel."""
    return data == ZERO_TIMESTAMP


def short_word(seconds: float) -> int:
    """The 16.16 fixed-point word of a non-negative duration."""
    if seconds < 0:
        raise ValueError("short format encodes non-negative durations")
    value = int(round(seconds * _TWO16))
    if value >= _TWO32:
        value = _TWO32 - 1  # saturate (~18.2 h), matching practice
    return value


def short_from_word(value: int) -> float:
    """Seconds of a 16.16 fixed-point short-format word."""
    return value / _TWO16


def encode_short(seconds: float) -> bytes:
    """Encode a non-negative duration as 16.16 fixed-point short format."""
    return _SHORT.pack(short_word(seconds))


def decode_short(data: bytes) -> float:
    """Decode a 4-byte short-format duration to seconds."""
    if len(data) != 4:
        raise ValueError(f"short format must be 4 bytes, got {len(data)}")
    (value,) = _SHORT.unpack(data)
    return short_from_word(value)
