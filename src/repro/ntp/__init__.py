"""NTP / SNTP protocol implementation.

Implements the RFC 5905 wire format and the reference processing
pipeline (clock filter, intersection/select, cluster, PLL/FLL
discipline), plus the RFC 4330 SNTP client behaviour that mobile
devices actually ship.
"""

from repro.ntp.constants import LeapIndicator, Mode, NTP_PORT, NTP_UNIX_EPOCH_DELTA
from repro.ntp.timestamps import (
    ntp_to_unix,
    unix_to_ntp,
    encode_timestamp,
    decode_timestamp,
    encode_short,
    decode_short,
)
from repro.ntp.packet import NtpPacket
from repro.ntp.wire import compute_offset_delay, OffsetSample
from repro.ntp.server import NtpServer, ServerPersona
from repro.ntp.sntp_client import SntpClient, SntpResult
from repro.ntp.clock_filter import ClockFilter, FilterSample
from repro.ntp.select import intersection, SelectInterval
from repro.ntp.cluster import cluster_survivors
from repro.ntp.discipline import ClockDiscipline, DisciplineParams
from repro.ntp.pool import PoolDns

__all__ = [
    "LeapIndicator",
    "Mode",
    "NTP_PORT",
    "NTP_UNIX_EPOCH_DELTA",
    "ntp_to_unix",
    "unix_to_ntp",
    "encode_timestamp",
    "decode_timestamp",
    "encode_short",
    "decode_short",
    "NtpPacket",
    "compute_offset_delay",
    "OffsetSample",
    "NtpServer",
    "ServerPersona",
    "SntpClient",
    "SntpResult",
    "ClockFilter",
    "FilterSample",
    "intersection",
    "SelectInterval",
    "cluster_survivors",
    "ClockDiscipline",
    "DisciplineParams",
    "PoolDns",
]
