"""Datagram container used by the simulated network."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

#: Fallback sequence for datagrams built outside a simulator (tests,
#: ad-hoc fixtures).  Simulation code allocates idents from the per-run
#: :class:`DatagramIdAllocator` on the :class:`~repro.simcore.simulator.
#: Simulator` instead, so same-seed runs are byte-identical without any
#: process-global reset.
_datagram_ids = itertools.count(1)


class DatagramIdAllocator:
    """Per-run datagram ident sequence (1, 2, 3, ...).

    Each :class:`~repro.simcore.simulator.Simulator` owns one, so the
    idents appearing in trace records are a function of the run alone —
    not of how many runs happened earlier in the process.
    """

    __slots__ = ("_next",)

    def __init__(self) -> None:
        self._next = 1

    def allocate(self) -> int:
        """Return the next ident in this run's sequence."""
        ident = self._next
        self._next += 1
        return ident


@dataclass
class Datagram:
    """A UDP-like message in flight through the simulated network.

    Attributes:
        payload: Raw wire bytes (e.g. an encoded NTP packet).
        src: Source address label (free-form, e.g. ``"tn"``).
        dst: Destination address label.
        src_port / dst_port: UDP-style ports; clients allocate a unique
            source port per query and servers echo it back, which is
            how responses find the right outstanding request.
        sent_at: True (virtual) time the datagram left the sender.
        delivered_at: True time of delivery; None while in flight/lost.
        dropped: True if the network dropped the datagram.
        ident: Unique id for tracing request/response pairs.
        trace_id: Causal exchange id propagated across hops; set by the
            originating client, echoed onto replies by servers, so one
            request/response pair reconstructs as a single tree in the
            trace log (see :mod:`repro.obs.causal`).
    """

    payload: bytes
    src: str
    dst: str
    src_port: int = 0
    dst_port: int = 123
    sent_at: float = 0.0
    delivered_at: Optional[float] = None
    dropped: bool = False
    ident: int = field(default_factory=lambda: next(_datagram_ids))
    trace_id: Optional[str] = None

    @property
    def size(self) -> int:
        """Payload size in bytes."""
        return len(self.payload)

    def owd(self) -> Optional[float]:
        """One-way delay experienced, or None if not (yet) delivered."""
        if self.delivered_at is None:
            return None
        return self.delivered_at - self.sent_at
