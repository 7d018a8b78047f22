"""Causal exchange assembly: one tree per SNTP exchange.

The network stack emits linked child spans for every exchange — the
client's ``sntp.exchange`` root, one ``link.transit`` per hop with the
hop delay split into propagation / queueing / interference components,
and the server's ``server.turnaround`` — all carrying the same
``trace_id`` allocated by the client.  Packet drops leave ``drop`` /
``ignored`` trace records with the same id.  This module joins those
records back into :class:`Exchange` objects and attaches the
``channel.interference`` episodes that overlapped each exchange in
time, so a single offset sample can be traced to the physical events
that shaped it (see :mod:`repro.obs.explain` for the attribution step).

Everything operates on a telemetry snapshot's
:class:`~repro.simcore.trace.TraceRecord` list, which a live run and a
loaded archive hand over alike, so archived runs are as inspectable as
live ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.obs.spans import SPAN_COMPONENT
from repro.simcore.trace import TraceRecord

#: Exchange outcomes where the server answered (a turnaround or a
#: response hop proves the tree is whole even though no sample came out).
_ANSWERED_FAILURES = frozenset(
    {"kod", "unsynchronized", "bad_mode", "malformed", "invalid"}
)

#: Outcomes the client imposed on itself (pending-table eviction); the
#: tree is explained by the client's own bookkeeping, not the network.
_CLIENT_CLOSED = frozenset({"evicted"})


@dataclass(frozen=True)
class Hop:
    """One ``link.transit`` span: a datagram crossing one link.

    The delay components sum to ``dur`` (up to span truncation at the
    run horizon): ``prop_s`` is the propagation floor, ``queue_s`` the
    queueing/contention share, ``intf_s`` the 802.11 retry share caused
    by interference / poor SNR.
    """

    link: str
    ident: int
    trace_id: str
    t0: float
    t1: float
    prop_s: float
    queue_s: float
    intf_s: float

    @property
    def dur(self) -> float:
        """Span duration in seconds."""
        return self.t1 - self.t0


@dataclass(frozen=True)
class Turnaround:
    """One ``server.turnaround`` span: request arrival to reply dispatch."""

    server: str
    trace_id: str
    t0: float
    t1: float
    outcome: Optional[str]

    @property
    def dur(self) -> float:
        """Span duration in seconds."""
        return self.t1 - self.t0


@dataclass(frozen=True)
class InterferenceEpisode:
    """One ``channel.interference`` span."""

    t0: float
    t1: float
    rssi_dip_db: float
    noise_lift_db: float

    @property
    def dur(self) -> float:
        """Episode duration in seconds."""
        return self.t1 - self.t0

    def overlaps(self, t0: float, t1: float) -> bool:
        """Whether the episode intersects the half-open window [t0, t1)."""
        return self.t0 < t1 and self.t1 > t0


@dataclass(frozen=True)
class InjectedFault:
    """One ``fault.episode`` span: an injected fault's active interval.

    Mirrors :class:`repro.faults.schedule.FaultEpisode` as observed in
    telemetry, so archived snapshots explain themselves without the
    schedule that produced them.
    """

    fault: str
    target: str
    direction: str
    t0: float
    t1: float

    @property
    def dur(self) -> float:
        """Episode duration in seconds."""
        return self.t1 - self.t0

    def overlaps(self, t0: float, t1: float) -> bool:
        """Whether the episode intersects the half-open window [t0, t1)."""
        return self.t0 < t1 and self.t1 > t0


@dataclass
class Exchange:
    """One reassembled causal tree rooted at an ``sntp.exchange`` span.

    Attributes:
        trace_id: The exchange's causal id (``<client>/<seq>``).
        client / server: Endpoint labels (server is the pool *member*
            that answered when known, else the name queried).
        t0 / t1: Root span interval (request sent → outcome known).
        outcome: ``ok``, ``timeout``, ``kod``, ``unsynchronized``,
            ``bad_mode``, ``malformed``, ``invalid`` (unusable
            timestamps), ``evicted`` (pending-table overflow) — or
            ``unresolved`` when the run ended with the query still in
            flight.
        offset / delay: The derived sample, for ``ok`` exchanges.
        request_hop / response_hop: The two ``link.transit`` children.
        turnaround: The ``server.turnaround`` child.
        drops: ``drop`` / ``ignored`` trace records with this trace_id.
        interference: Channel episodes overlapping [t0, t1).
        faults: Injected fault episodes overlapping [t0, t1).
    """

    trace_id: str
    client: str
    server: Optional[str]
    t0: float
    t1: float
    outcome: str
    offset: Optional[float] = None
    delay: Optional[float] = None
    request_hop: Optional[Hop] = None
    response_hop: Optional[Hop] = None
    turnaround: Optional[Turnaround] = None
    drops: List[Dict[str, Any]] = field(default_factory=list)
    interference: List[InterferenceEpisode] = field(default_factory=list)
    faults: List[InjectedFault] = field(default_factory=list)

    @property
    def dur(self) -> float:
        """Root span duration in seconds."""
        return self.t1 - self.t0

    @property
    def complete(self) -> bool:
        """Whether the causal tree fully explains the outcome.

        * ``ok`` — both hops and the server turnaround are present.
        * ``timeout`` — a drop record names the lost packet, or the
          full round trip is present (the reply simply arrived after
          the client's timer).
        * answered failures (``kod``, ``unsynchronized``, ...) — the
          server's side of the tree is present.
        * ``evicted`` — always complete: the client closed the exchange
          itself to bound its pending table.
        * ``unresolved`` — never complete.
        """
        whole_round_trip = (
            self.request_hop is not None
            and self.response_hop is not None
            and self.turnaround is not None
        )
        if self.outcome == "ok":
            return whole_round_trip
        if self.outcome == "timeout":
            return bool(self.drops) or whole_round_trip
        if self.outcome in _ANSWERED_FAILURES:
            return self.turnaround is not None or self.response_hop is not None
        if self.outcome in _CLIENT_CLOSED:
            return True
        return False


def _hop_from(data: Dict[str, Any]) -> Hop:
    return Hop(
        link=str(data.get("link", "?")),
        ident=int(data.get("ident", 0)),
        trace_id=str(data.get("trace_id")),
        t0=float(data["t0"]),
        t1=float(data["t1"]),
        prop_s=float(data.get("prop_s", 0.0)),
        queue_s=float(data.get("queue_s", 0.0)),
        intf_s=float(data.get("intf_s", 0.0)),
    )


def assemble_exchanges(snapshot: Dict[str, Any]) -> List[Exchange]:
    """Rebuild every exchange's causal tree from a telemetry snapshot.

    Returns exchanges in root-span emission order (deterministic for a
    given snapshot).  Exchanges the run cut off mid-flight come back
    with ``outcome="unresolved"``.
    """
    roots: List[TraceRecord] = []
    hops: Dict[str, List[Hop]] = {}
    turnarounds: Dict[str, Turnaround] = {}
    drops: Dict[str, List[Dict[str, Any]]] = {}
    episodes: List[InterferenceEpisode] = []
    faults: List[InjectedFault] = []

    for record in snapshot.get("records", []):
        data = record.data
        kind = record.kind
        if record.component == SPAN_COMPONENT:
            if kind == "sntp.exchange":
                roots.append(record)
            elif kind == "link.transit" and data.get("trace_id") is not None:
                hops.setdefault(str(data["trace_id"]), []).append(_hop_from(data))
            elif kind == "server.turnaround" and data.get("trace_id") is not None:
                turnarounds[str(data["trace_id"])] = Turnaround(
                    server=str(data.get("server", "?")),
                    trace_id=str(data["trace_id"]),
                    t0=float(data["t0"]),
                    t1=float(data["t1"]),
                    outcome=data.get("outcome"),
                )
            elif kind == "channel.interference":
                episodes.append(
                    InterferenceEpisode(
                        t0=float(data["t0"]),
                        t1=float(data["t1"]),
                        rssi_dip_db=float(data.get("rssi_dip_db", 0.0)),
                        noise_lift_db=float(data.get("noise_lift_db", 0.0)),
                    )
                )
            elif kind == "fault.episode":
                faults.append(
                    InjectedFault(
                        fault=str(data.get("fault", "?")),
                        target=str(data.get("target", "*")),
                        direction=str(data.get("direction", "both")),
                        t0=float(data["t0"]),
                        t1=float(data["t1"]),
                    )
                )
        elif kind in ("drop", "ignored") and data.get("trace_id") is not None:
            drops.setdefault(str(data["trace_id"]), []).append(
                {
                    "t": record.time,
                    "component": record.component,
                    "kind": kind,
                    "ident": data.get("ident"),
                }
            )

    exchanges: List[Exchange] = []
    for record in roots:
        data = record.data
        trace_id = str(data.get("trace_id"))
        exchange = Exchange(
            trace_id=trace_id,
            client=str(data.get("client", "?")),
            server=data.get("server"),
            t0=float(data["t0"]),
            t1=float(data["t1"]),
            outcome=str(data.get("outcome", "unresolved")),
            offset=data.get("offset"),
            delay=data.get("delay"),
            turnaround=turnarounds.get(trace_id),
            drops=drops.get(trace_id, []),
        )
        for hop in sorted(hops.get(trace_id, []), key=lambda h: h.t0):
            # Links are named by direction ("up:<server>" toward the
            # server, "down:<server>" back); fall back to arrival order
            # for topologies with other naming.
            if hop.link.startswith("up:"):
                exchange.request_hop = exchange.request_hop or hop
            elif hop.link.startswith("down:"):
                exchange.response_hop = exchange.response_hop or hop
            elif exchange.request_hop is None:
                exchange.request_hop = hop
            else:
                exchange.response_hop = exchange.response_hop or hop
        exchange.interference = [
            ep for ep in episodes if ep.overlaps(exchange.t0, exchange.t1)
        ]
        exchange.faults = [
            f for f in faults if f.overlaps(exchange.t0, exchange.t1)
        ]
        exchanges.append(exchange)
    return exchanges


def completeness(exchanges: List[Exchange]) -> float:
    """Fraction of exchanges whose causal tree is complete (1.0 if none)."""
    if not exchanges:
        return 1.0
    return sum(1 for e in exchanges if e.complete) / len(exchanges)
