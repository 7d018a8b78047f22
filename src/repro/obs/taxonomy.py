"""The registered span-kind taxonomy and metric naming convention.

Every span kind is ``subsystem.name`` where the prefix names the
emitting subsystem (and becomes the track in the Chrome trace export).
The ``OBS002`` lint rule checks statically-known span kinds against
:data:`SPAN_KINDS` and metric names against the Prometheus convention
(``_total`` suffix on counters, a unit suffix on gauges/histograms), so
the taxonomy below is the single place a new kind or unit must be
registered.
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

#: Accepted unit suffixes for gauge / histogram metric names.
METRIC_UNIT_SUFFIXES = (
    "_seconds",
    "_s",
    "_ms",
    "_us",
    "_ns",
    "_ppm",
    "_hz",
    "_db",
    "_dbm",
    "_bytes",
    "_ratio",
    "_percent",
    "_celsius",
)


def span_kind_registered(kind: str) -> bool:
    """Whether ``kind`` is in the registered taxonomy."""
    return kind in SPAN_KINDS


def span_subsystem(kind: str) -> str:
    """The subsystem prefix of a span kind (text before the first dot)."""
    return kind.split(".", 1)[0]


def metric_name_conforms(name: str, metric_type: str) -> bool:
    """Whether ``name`` follows the Prometheus convention for its type.

    Counters must end in ``_total``; gauges and histograms must carry a
    unit suffix from :data:`METRIC_UNIT_SUFFIXES` and must *not* end in
    ``_total`` (that suffix is reserved for counters).
    """
    if metric_type == "counter":
        return name.endswith("_total")
    if name.endswith("_total"):
        return False
    return name.endswith(METRIC_UNIT_SUFFIXES)
