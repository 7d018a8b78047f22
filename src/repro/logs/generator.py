"""Synthetic NTP-server trace generation.

For each Table-1 server a one-day client population is drawn:

* providers mixed by client weight (ISP-specific servers CI1-4/EN1-2
  instead serve mostly full-NTP infrastructure hosts of one ISP);
* each client gets an address from its provider's block, a protocol
  (SNTP with the provider's share), a min-OWD from the provider's
  latency profile, a request count matching the server's published
  measurements-per-client ratio, and a clock state — most clients are
  synchronized (small offset), some are wildly off so the
  synchronized-client heuristic has something to reject;
* every request/response pair is emitted as genuine Ethernet/IP/UDP/NTP
  bytes into a pcap stream with server-side capture timestamps.

Populations are subsampled by ``scale`` (the paper's full day is 209 M
packets); all draws come from named RNG streams so traces are
reproducible byte for byte.
"""

from __future__ import annotations

import io
import zlib
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.logs.asndb import AsnDatabase
from repro.logs.providers import PROVIDERS, Provider
from repro.logs.servers import ServerDescriptor
from repro.net.internet import InternetPath
from repro.ntp.constants import NTP_PORT, Mode
from repro.ntp.packet import NtpPacket
from repro.pcaplib.ethernet import ETHERTYPE_IPV4, ETHERTYPE_IPV6, EthernetFrame
from repro.pcaplib.ip import PROTO_UDP, Ipv4Header, Ipv6Header
from repro.pcaplib.pcap import PcapRecord, PcapWriter
from repro.pcaplib.udp import UdpDatagram
from repro.simcore.random import RngRegistry

#: Trace epoch: an arbitrary 2016 instant (the study's collection year).
TRACE_EPOCH_UNIX = 1_460_000_000.0

_SERVER_MAC = "02:00:00:00:00:01"
_CLIENT_MAC = "02:00:00:00:00:02"


@dataclass
class GeneratorOptions:
    """Trace-generation knobs.

    Attributes:
        scale: Fraction of the published client population to generate.
        min_clients / max_clients: Per-server clamps after scaling.
        max_requests_per_client: Cap on generated requests per client.
        day_seconds: Trace duration (the paper's logs cover 24 h).
        synchronized_fraction: Clients with a near-true clock.
        unsynced_offset_range: |offset| range (seconds) for the rest.
        ipv6_share: Fraction of clients using IPv6 on v4/v6 servers.
    """

    scale: float = 1e-4
    min_clients: int = 30
    max_clients: int = 1500
    max_requests_per_client: int = 60
    day_seconds: float = 86_400.0
    synchronized_fraction: float = 0.85
    unsynced_offset_range: "tuple[float, float]" = (5.0, 300.0)
    ipv6_share: float = 0.2


@dataclass
class GeneratedClient:
    """Ground truth for one generated client (kept for test oracles)."""

    ip: str
    provider: Provider
    uses_sntp: bool
    min_owd: float
    clock_offset: float
    requests: int
    synchronized: bool


class TraceGenerator:
    """Builds one server's pcap trace.

    Args:
        server: The Table-1 server descriptor.
        seed: Root seed (per-server streams are derived from it and the
            server id, so each server's trace is independent).
        options: Generation knobs.
    """

    def __init__(
        self,
        server: ServerDescriptor,
        seed: int = 0,
        options: GeneratorOptions = GeneratorOptions(),
    ) -> None:
        self.server = server
        self.options = options
        self._rng_registry = RngRegistry(seed)
        self._rng = self._rng_registry.stream(f"trace:{server.server_id}")
        self._asndb = AsnDatabase()
        self.clients: List[GeneratedClient] = []

    # -- population ------------------------------------------------------------

    def _client_count(self) -> int:
        opts = self.options
        scaled = int(round(self.server.unique_clients * opts.scale))
        return max(opts.min_clients, min(opts.max_clients, scaled))

    def _pick_provider(self) -> Provider:
        if self.server.isp_specific:
            # ISP-internal server: clients are that ISP's own hosts.
            isp_pool = [p for p in PROVIDERS if p.category == "isp"]
            # crc32, not hash(): str hashes are salted per process.
            anchor = isp_pool[zlib.crc32(self.server.server_id.encode()) % len(isp_pool)]
            if self._rng.random() < 0.9:
                return anchor
        weights = np.asarray([p.client_weight for p in PROVIDERS])
        weights = weights / weights.sum()
        return PROVIDERS[int(self._rng.choice(len(PROVIDERS), p=weights))]

    def _draw_clients(self) -> List[GeneratedClient]:
        opts = self.options
        count = self._client_count()
        mean_requests = min(
            float(opts.max_requests_per_client), self.server.mean_requests_per_client
        )
        clients: List[GeneratedClient] = []
        per_provider_index: dict = {}
        for _ in range(count):
            provider = self._pick_provider()
            index = per_provider_index.get(provider.sp_id, 0)
            per_provider_index[provider.sp_id] = index + 1
            use_v6 = (
                "v6" in self.server.ip_versions
                and self._rng.random() < opts.ipv6_share
            )
            # Unique-per-trace index so addresses never collide between
            # servers of the same study run.
            ip = self._asndb.client_ip(provider, index, ipv6=use_v6)
            uses_sntp = self._rng.random() < (
                0.05 if self.server.isp_specific else provider.sntp_share
            )
            path = InternetPath(provider.profile, self._rng)
            min_owd = path.sample_client_min_owd() * provider.latency_scale
            synchronized = self._rng.random() < opts.synchronized_fraction
            if synchronized:
                clock_offset = float(self._rng.normal(0.0, 0.020))
            else:
                lo, hi = opts.unsynced_offset_range
                clock_offset = float(self._rng.uniform(lo, hi)) * (
                    1 if self._rng.random() < 0.5 else -1
                )
            if uses_sntp:
                # SNTP clients poll rarely (Android: ~daily).
                requests = 1 + int(self._rng.poisson(2.0))
            else:
                requests = max(
                    2,
                    int(
                        self._rng.lognormal(
                            mean=np.log(max(2.0, mean_requests)), sigma=0.6
                        )
                    ),
                )
            requests = min(requests, opts.max_requests_per_client)
            clients.append(
                GeneratedClient(
                    ip=ip,
                    provider=provider,
                    uses_sntp=uses_sntp,
                    min_owd=min_owd,
                    clock_offset=clock_offset,
                    requests=requests,
                    synchronized=synchronized,
                )
            )
        return clients

    # -- packet emission -----------------------------------------------------------

    def generate(self, fileobj: Optional[io.IOBase] = None) -> bytes:
        """Generate the trace; returns the pcap bytes (also written to
        ``fileobj`` if given)."""
        buffer = io.BytesIO()
        writer = PcapWriter(buffer)
        self.clients = self._draw_clients()
        records: List[PcapRecord] = []
        for client in self.clients:
            records.extend(self._client_records(client))
        records.sort(key=lambda r: r.ts)
        writer.write_all(records)
        data = buffer.getvalue()
        if fileobj is not None:
            fileobj.write(data)
        return data

    def _client_records(self, client: GeneratedClient) -> List[PcapRecord]:
        opts = self.options
        records: List[PcapRecord] = []
        server_ip = self.server.server_ip
        ipv6 = ":" in client.ip
        if ipv6:
            # The server's v6 address mirrors its v4 identity.
            server_addr = f"2001:db8:ffff::{self.server.server_ip.split('.')[-1]}"
        else:
            server_addr = server_ip
        src_port = int(self._rng.integers(1024, 65_000))
        times = np.sort(self._rng.uniform(0, opts.day_seconds, size=client.requests))
        for t in times:
            true_send = TRACE_EPOCH_UNIX + float(t)
            owd_fwd = client.min_owd + float(self._rng.exponential(client.min_owd * 0.15))
            arrive = true_send + owd_fwd
            client_xmt = true_send + client.clock_offset
            if client.uses_sntp:
                request = NtpPacket.sntp_request(client_xmt)
            else:
                request = NtpPacket.ntp_request(
                    client_xmt, poll=int(self._rng.integers(6, 11))
                )
            records.append(
                self._frame(
                    ts=arrive,
                    src_ip=client.ip,
                    dst_ip=server_addr,
                    src_port=src_port,
                    dst_port=NTP_PORT,
                    payload=request.encode(),
                    ipv6=ipv6,
                )
            )
            # Server response captured on its way out.
            depart = arrive + 0.0005
            response = NtpPacket(
                mode=Mode.SERVER,
                version=request.version,
                stratum=self.server.stratum,
                poll=request.poll,
                precision=-20,
                root_delay=0.001 * self.server.stratum,
                root_dispersion=0.002 * self.server.stratum,
                ref_id=b"GPS\x00",
                reference_ts=arrive - 16.0,
                origin_ts=request.transmit_ts,
                receive_ts=arrive,
                transmit_ts=depart,
            )
            records.append(
                self._frame(
                    ts=depart,
                    src_ip=server_addr,
                    dst_ip=client.ip,
                    src_port=NTP_PORT,
                    dst_port=src_port,
                    payload=response.encode(),
                    ipv6=ipv6,
                )
            )
        return records

    def _frame(
        self,
        ts: float,
        src_ip: str,
        dst_ip: str,
        src_port: int,
        dst_port: int,
        payload: bytes,
        ipv6: bool,
    ) -> PcapRecord:
        udp = UdpDatagram(src_port=src_port, dst_port=dst_port, payload=payload)
        udp_bytes = udp.encode(src_ip, dst_ip)
        if ipv6:
            ip_bytes = Ipv6Header(
                src=src_ip, dst=dst_ip, next_header=PROTO_UDP, payload=udp_bytes
            ).encode()
            ethertype = ETHERTYPE_IPV6
        else:
            ip_bytes = Ipv4Header(
                src=src_ip, dst=dst_ip, protocol=PROTO_UDP, payload=udp_bytes
            ).encode()
            ethertype = ETHERTYPE_IPV4
        frame = EthernetFrame(
            dst=_SERVER_MAC, src=_CLIENT_MAC, ethertype=ethertype, payload=ip_bytes
        )
        return PcapRecord(ts=ts, data=frame.encode())
