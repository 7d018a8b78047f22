"""The registered span-kind taxonomy.

Every span kind is ``subsystem.name`` where the prefix names the
emitting subsystem (and becomes the track in the Chrome trace export).
The ``OBS002`` lint rule checks statically-known span kinds against
:data:`SPAN_KINDS`, so the taxonomy below is the single place a new
kind must be registered.
"""

from __future__ import annotations

#: Subsystems allowed to own span kinds (the prefix before the dot).
SPAN_SUBSYSTEMS = frozenset(
    {"sim", "mntp", "sntp", "link", "server", "channel", "tuner", "fault"}
)

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
        "tuner.tune",
        "tuner.eval",
        "fault.episode",
    }
)


def span_kind_registered(kind: str) -> bool:
    """Whether ``kind`` is in the registered taxonomy."""
    return kind in SPAN_KINDS


def span_subsystem(kind: str) -> str:
    """The subsystem prefix of a span kind (text before the first dot)."""
    return kind.split(".", 1)[0]

