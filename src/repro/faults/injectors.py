"""Arms a :class:`~repro.faults.schedule.FaultSchedule` against a run.

One :class:`FaultInjector` per simulation.  It plugs into the two
seams the stack already exposes:

* the per-link ``effect_hook`` (see :class:`repro.net.link.Link`) —
  network episodes mutate the sampled :class:`~repro.net.link.
  LinkEffect` per packet (drop, extra delay, duplication, reordering
  jitter);
* :class:`~repro.ntp.server.NtpServer` fault state — server episodes
  flip the target servers' :class:`~repro.ntp.server.ServerFaultState`
  at episode start and revert it at episode end, so every fault is
  transient and the post-episode window measures recovery.

All stochastic decisions draw from the dedicated ``faults:injector``
stream, which is name-isolated in the RNG registry: adding fault
injection never perturbs the sequences any other component sees, and
the same root seed plus schedule reproduces the run byte for byte.
Every episode is visible to the observability layer as a
``fault.episode`` span, which :mod:`repro.obs.causal` attaches to the
exchanges it overlapped.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.faults.schedule import (
    FaultEpisode,
    FaultKind,
    FaultSchedule,
    NETWORK_KINDS,
)
from repro.net.link import ExtraEffectFn, LinkEffect
from repro.ntp.server import NtpServer
from repro.simcore.simulator import Simulator

#: Kinds checked by :meth:`FaultInjector.node_suspended`.
_SUSPEND_KINDS = frozenset({FaultKind.SUSPEND})


class FaultInjector:
    """Schedules episode boundaries and applies per-packet effects.

    Args:
        sim: The simulation kernel the schedule is armed against.
        schedule: The episodes to inject.
    """

    def __init__(self, sim: Simulator, schedule: FaultSchedule) -> None:
        self._sim = sim
        self.schedule = schedule
        self._rng = sim.rng.stream("faults:injector")
        metrics = sim.telemetry.metrics
        self._episodes_started = metrics.counter(
            "fault_episodes_total", "fault episodes whose window opened"
        )
        self._packets_dropped = metrics.counter(
            "fault_packets_dropped_total",
            "packets dropped by blackout/burst-loss/suspend faults",
        )
        self._packets_delayed = metrics.counter(
            "fault_packets_delayed_total",
            "packets given extra delay by surge/reorder faults",
        )
        self._packets_duplicated = metrics.counter(
            "fault_packets_duplicated_total",
            "packets duplicated by duplication faults",
        )
        self._installed = False

    # -- arming -----------------------------------------------------------

    def install(self, servers: Dict[str, NtpServer]) -> None:
        """Arm every episode: spans at the boundaries, server mutations.

        Network and suspend episodes only need their ``fault.episode``
        span scheduled (their per-packet effect is evaluated lazily in
        the wrapped hooks); server episodes additionally apply and
        revert the matching servers' fault state.  Idempotent-guarded:
        a second call is an error.
        """
        if self._installed:
            raise RuntimeError("fault schedule already installed")
        self._installed = True
        for episode in self.schedule:
            targets = [s for n, s in servers.items() if episode.matches(n)]
            self._arm_episode(episode, targets)

    def _arm_episode(self, episode: FaultEpisode, targets: "list[NtpServer]") -> None:
        state = {"span": None}

        def begin() -> None:
            self._episodes_started.inc()
            state["span"] = self._sim.telemetry.spans.begin(
                "fault.episode",
                fault=episode.kind.value,
                target=episode.target,
                direction=episode.direction,
                params={k: episode.params[k] for k in sorted(episode.params)},
            )
            self._apply_server_fault(episode, targets)

        def end() -> None:
            self._revert_server_fault(episode, targets)
            span = state["span"]
            if span is not None:
                span.end()

        self._sim.call_at(episode.start, begin, label="fault:begin")
        self._sim.call_at(episode.end, end, label="fault:end")

    # -- server episodes ----------------------------------------------------

    def _apply_server_fault(
        self, episode: FaultEpisode, targets: "list[NtpServer]"
    ) -> None:
        kind, now = episode.kind, self._sim.now
        for server in targets:
            faults = server.faults
            if kind is FaultKind.SERVER_STEP:
                faults.add_step(episode.param("step_s", 0.5))
            elif kind is FaultKind.SERVER_DRIFT:
                faults.add_rate(now, episode.param("rate_s_per_s", 0.001))
            elif kind is FaultKind.SERVER_UNSYNC:
                faults.unsynchronized += 1
            elif kind is FaultKind.KOD_STORM:
                faults.kod_storm += 1
            elif kind is FaultKind.ZERO_TRANSMIT:
                faults.zero_transmit += 1
            elif kind is FaultKind.SERVER_DEATH:
                faults.dead += 1

    def _revert_server_fault(
        self, episode: FaultEpisode, targets: "list[NtpServer]"
    ) -> None:
        kind, now = episode.kind, self._sim.now
        for server in targets:
            faults = server.faults
            if kind is FaultKind.SERVER_STEP:
                faults.add_step(-episode.param("step_s", 0.5))
            elif kind is FaultKind.SERVER_DRIFT:
                # The server resyncs: remove the rate and the bias it
                # accrued over the window, so the net effect is zero.
                rate = episode.param("rate_s_per_s", 0.001)
                faults.add_rate(now, -rate)
                faults.add_step(-rate * episode.duration)
            elif kind is FaultKind.SERVER_UNSYNC:
                faults.unsynchronized -= 1
            elif kind is FaultKind.KOD_STORM:
                faults.kod_storm -= 1
            elif kind is FaultKind.ZERO_TRANSMIT:
                faults.zero_transmit -= 1
            elif kind is FaultKind.SERVER_DEATH:
                faults.dead -= 1

    # -- network episodes ---------------------------------------------------

    def wrap_hook(
        self,
        base: Optional[ExtraEffectFn],
        direction: str,
        target: str,
    ) -> ExtraEffectFn:
        """Wrap a link's effect hook with the schedule's network faults.

        Args:
            base: The link's existing hook (the wireless channel) or
                None for wired links.
            direction: ``"up"`` or ``"down"`` — which way this link
                carries traffic, matched against episode directions.
            target: The server name this link serves, matched against
                episode targets.
        """

        def hook() -> LinkEffect:
            effect = base() if base is not None else LinkEffect()
            active = self.schedule.active(self._sim.now, NETWORK_KINDS)
            if not active:
                return effect
            was_lost = effect.lost
            base_delay = effect.extra_delay
            for episode in active:
                if not episode.matches(target):
                    continue
                if not episode.affects_direction(direction):
                    continue
                self._apply_packet_fault(episode, effect)
            if effect.lost and not was_lost:
                self._packets_dropped.inc()
            if effect.extra_delay > base_delay and not effect.lost:
                self._packets_delayed.inc()
            if effect.duplicate_extra is not None and not effect.lost:
                self._packets_duplicated.inc()
            return effect

        return hook

    def _apply_packet_fault(self, episode: FaultEpisode, effect: LinkEffect) -> None:
        kind = episode.kind
        if kind is FaultKind.BLACKOUT:
            effect.lost = True
        elif kind is FaultKind.DELAY_SURGE:
            effect.extra_delay += episode.param("delay_s", 0.25)
        elif kind is FaultKind.BURST_LOSS:
            if self._rng.random() < episode.param("loss_rate", 0.5):
                effect.lost = True
        elif kind is FaultKind.DUPLICATE:
            if self._rng.random() < episode.param("dup_rate", 0.25):
                effect.duplicate_extra = episode.param("dup_delay_s", 0.05)
        elif kind is FaultKind.REORDER:
            if self._rng.random() < episode.param("reorder_rate", 0.3):
                effect.extra_delay += float(
                    self._rng.uniform(0.0, episode.param("jitter_s", 0.2))
                )

    # -- suspend -------------------------------------------------------------

    def node_suspended(self, name: str) -> bool:
        """Whether a suspend episode currently freezes node ``name``."""
        return any(
            e.matches(name)
            for e in self.schedule.active(self._sim.now, _SUSPEND_KINDS)
        )

    def record_suspend_drop(
        self, name: str, trace_id: Optional[str], ident: Optional[int] = None
    ) -> None:
        """Emit the drop record for a packet lost to a suspend episode.

        The record carries the exchange's trace id so the causal
        assembler still closes the tree (outcome ``timeout`` with an
        attributable drop) instead of losing completeness.
        """
        self._packets_dropped.inc()
        self._sim.telemetry.emit(
            self._sim.now, f"node:{name}", "drop",
            cause="suspend", trace_id=trace_id, ident=ident,
        )
