"""The §3.1 NTP-server log study.

Synthesises per-server packet traces calibrated to the paper's Table 1
(client counts, strata, IP versions, measurement volumes) and Figure 1
(per-provider-category latency profiles), writes them as genuine pcap
bytes via :mod:`repro.pcaplib`, then runs the same analysis pipeline the
paper's tcpdump-based tool performs: dissect -> synchronized-client
filtering heuristic -> wired/wireless + SNTP/NTP classification ->
per-provider latency statistics.
"""

from repro.logs.providers import (
    Provider,
    PROVIDERS,
    top_providers,
)
from repro.logs.asndb import AsnDatabase, AsnRecord
from repro.logs.servers import ServerDescriptor, TABLE1_SERVERS
from repro.logs.generator import TraceGenerator, GeneratorOptions
from repro.logs.parser import parse_trace, ClientObservation
from repro.logs.heuristic import filter_synchronized_clients
from repro.logs.classify import classify_provider_kind, classify_protocol_share
from repro.logs.analysis import LogStudy, ServerSummary, ProviderLatency

__all__ = [
    "Provider",
    "PROVIDERS",
    "top_providers",
    "AsnDatabase",
    "AsnRecord",
    "ServerDescriptor",
    "TABLE1_SERVERS",
    "TraceGenerator",
    "GeneratorOptions",
    "parse_trace",
    "ClientObservation",
    "filter_synchronized_clients",
    "classify_provider_kind",
    "classify_protocol_share",
    "LogStudy",
    "ServerSummary",
    "ProviderLatency",
]
