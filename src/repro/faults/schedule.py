"""Declarative, JSON-round-trippable fault schedules.

A :class:`FaultSchedule` is a list of timed :class:`FaultEpisode`
entries — "blackout from t=600 for 60 s", "step every member of pool 0
by +500 ms between t=600 and t=1200" — that the
:class:`~repro.faults.injectors.FaultInjector` arms against a running
simulation.  The schedule itself carries **no randomness**: stochastic
faults (burst loss, duplication, reordering) declare probabilities here
and draw from a dedicated, seeded simulator stream at injection time,
so the same root seed and schedule always produce the same run, byte
for byte.

Schedules serialize to a plain dict and load back losslessly through
the typed codec (:mod:`repro.codec`: unknown keys and wrong types
raise with their path), which is what lets a scenario spec embed the
exact hostile conditions it runs under.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, Iterator, List, Optional

from repro.codec import decode, encode


class FaultKind(Enum):
    """Every injectable fault class (see docs/ROBUSTNESS.md)."""

    #: Total loss of all matching traffic for the window.
    BLACKOUT = "blackout"
    #: Constant extra one-way delay on matching traffic (asymmetric
    #: surges use two episodes with different ``direction``).
    DELAY_SURGE = "delay_surge"
    #: Bernoulli loss at ``loss_rate`` on matching traffic.
    BURST_LOSS = "burst_loss"
    #: Duplicate matching packets with probability ``dup_rate``; the
    #: copy arrives ``dup_delay_s`` later.
    DUPLICATE = "duplicate"
    #: Add uniform extra delay to a fraction of packets so back-to-back
    #: datagrams overtake each other.
    REORDER = "reorder"
    #: Step the target servers' clocks by ``step_s`` at episode start
    #: and step them back at episode end (a rebooting upstream).
    SERVER_STEP = "server_step"
    #: Ramp the target servers' clocks at ``rate_s_per_s`` for the
    #: window (a falseticker that drifts instead of lying constantly).
    SERVER_DRIFT = "server_drift"
    #: Target servers answer with leap=ALARM / stratum 16 (lost their
    #: own upstream) for the window.
    SERVER_UNSYNC = "server_unsync"
    #: Target servers answer every request with a kiss-of-death RATE
    #: packet for the window.
    KOD_STORM = "kod_storm"
    #: Target servers zero the transmit timestamp in their responses
    #: (RFC 4330 requires clients to discard these).
    ZERO_TRANSMIT = "zero_transmit"
    #: Target servers silently drop every request for the window.
    SERVER_DEATH = "server_death"
    #: The target *node* suspends: its radio is off, all traffic to and
    #: from it is dropped for the window (phone in a pocket).
    SUSPEND = "suspend"


#: Kinds applied per packet on the link layer.
NETWORK_KINDS = frozenset(
    {
        FaultKind.BLACKOUT,
        FaultKind.DELAY_SURGE,
        FaultKind.BURST_LOSS,
        FaultKind.DUPLICATE,
        FaultKind.REORDER,
    }
)

#: Kinds applied to :class:`~repro.ntp.server.NtpServer` behaviour.
SERVER_KINDS = frozenset(
    {
        FaultKind.SERVER_STEP,
        FaultKind.SERVER_DRIFT,
        FaultKind.SERVER_UNSYNC,
        FaultKind.KOD_STORM,
        FaultKind.ZERO_TRANSMIT,
        FaultKind.SERVER_DEATH,
    }
)

#: Valid ``direction`` values for network episodes.
DIRECTIONS = ("up", "down", "both")

@dataclass(frozen=True)
class FaultEpisode:
    """One timed fault: what, when, to whom.

    Attributes:
        kind: The fault class.
        start: Virtual time (seconds) the episode begins.
        duration: Episode length in seconds (the window is half-open:
            ``[start, start + duration)``).
        target: Which entities it hits.  ``"*"`` matches everything; a
            pool hostname (``"0.pool.ntp.org"``) matches the pool and
            every member (``"0.pool.ntp.org#2"``); an exact name
            matches only itself.  For :attr:`FaultKind.SUSPEND` the
            target is a node label (the testbed's target node is
            ``"tn"``).
        direction: ``"up"`` (toward servers), ``"down"`` (toward the
            client) or ``"both"``; only meaningful for network kinds.
        params: Kind-specific numeric parameters (see each kind's doc).
    """

    kind: FaultKind
    start: float
    duration: float
    target: str = "*"
    direction: str = "both"
    params: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        """Validate timing, direction, and parameter values."""
        if self.start < 0:
            raise ValueError(f"episode start must be >= 0, got {self.start}")
        if self.duration <= 0:
            raise ValueError(
                f"episode duration must be positive, got {self.duration}"
            )
        if self.direction not in DIRECTIONS:
            raise ValueError(
                f"direction must be one of {DIRECTIONS}, got {self.direction!r}"
            )
        for key, value in self.params.items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValueError(f"param {key!r} must be numeric, got {value!r}")

    @property
    def end(self) -> float:
        """Virtual time the episode ends (exclusive)."""
        return self.start + self.duration

    def active(self, t: float) -> bool:
        """Whether the episode covers virtual time ``t``."""
        return self.start <= t < self.end

    def matches(self, name: str) -> bool:
        """Whether ``name`` (server/node label) is targeted."""
        if self.target == "*":
            return True
        return name == self.target or name.startswith(self.target + "#")

    def affects_direction(self, direction: str) -> bool:
        """Whether a link in ``direction`` ("up"/"down") is targeted."""
        return self.direction == "both" or self.direction == direction

    def param(self, key: str, default: float) -> float:
        """Numeric parameter lookup with a default."""
        return float(self.params.get(key, default))


@dataclass(repr=False)
class FaultSchedule:
    """An ordered collection of :class:`FaultEpisode` entries.

    Attributes:
        episodes: The episodes, in any order (kept as given; consumers
            that need time order sort on ``start``).
        name: Label used in reports and telemetry.
    """

    episodes: List[FaultEpisode] = field(default_factory=list)
    name: str = "schedule"

    def __iter__(self) -> Iterator[FaultEpisode]:
        """Iterate the episodes in declaration order."""
        return iter(self.episodes)

    def __len__(self) -> int:
        """Number of episodes."""
        return len(self.episodes)

    def __repr__(self) -> str:
        """Compact debugging form."""
        return f"FaultSchedule({self.name!r}, {len(self.episodes)} episodes)"

    def add(self, episode: FaultEpisode) -> "FaultSchedule":
        """Append an episode; returns self for chaining."""
        self.episodes.append(episode)
        return self

    def active(self, t: float, kinds: Optional[frozenset] = None) -> List[FaultEpisode]:
        """Episodes covering time ``t`` (optionally of the given kinds)."""
        return [
            e
            for e in self.episodes
            if e.active(t) and (kinds is None or e.kind in kinds)
        ]

    def horizon(self) -> float:
        """Latest episode end time (0.0 for an empty schedule)."""
        return max((e.end for e in self.episodes), default=0.0)

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (stable, JSON-serializable)."""
        return encode(self)

    @classmethod
    def from_dict(cls, data: Any) -> "FaultSchedule":
        """Rebuild a schedule from :meth:`to_dict` output.

        Errors name the path of the bad value from the ``faults`` block
        a scenario spec embeds, e.g. ``faults.episodes[1]: unknown keys``.

        Raises:
            ValueError: On a malformed schedule (see :mod:`repro.codec`)
                or an invalid episode.
        """
        return decode(cls, data, "faults")
