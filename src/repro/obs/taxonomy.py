"""The registered span-kind taxonomy.

Every span kind is ``subsystem.name`` where the prefix names the
emitting subsystem (and becomes the track in the Chrome trace export).
The ``OBS002`` lint rule checks statically-known span kinds against
:data:`SPAN_KINDS`, so the taxonomy below is the single place a new
kind must be registered.
"""

from __future__ import annotations

#: Every registered span kind.  Emitting an unregistered kind from a
#: string literal is an OBS002 finding.
SPAN_KINDS = frozenset(
    {
        "sim.run",
        "mntp.warmup",
        "mntp.regular",
        "mntp.gate_wait",
        "sntp.exchange",
        "link.transit",
        "server.turnaround",
        "channel.interference",
        "fault.episode",
    }
)


def span_kind_registered(kind: str) -> bool:
    """Whether ``kind`` is in the registered taxonomy."""
    return kind in SPAN_KINDS
