"""ntpd-style clock discipline.

Drives the full reference pipeline the paper calls "NTP's sophisticated
sample filtering and clock selection heuristics":

  poll N servers -> per-association clock filter -> intersection
  (Marzullo) -> cluster -> popcorn gate -> phase slew/step +
  regression-based frequency trim, with adaptive poll interval.

Design notes on the frequency loop: a naive FLL (offset/interval per
update) is unstable here because phase slews hide the skew and
queueing noise divided by short poll intervals swamps the signal.
Instead the daemon reconstructs the *uncorrected* offset trajectory by
adding back the phase corrections it has applied, fits a degree-1
least-squares line over a window of rounds, and trims the clock
frequency by the damped slope — then restarts the window so each fit
sees a constant-trim regime.

Experiments labelled "with NTP clock correction" run this daemon on the
target node; "without" runs nothing and lets the clock free-run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.clock.discipline_api import ClockCorrector
from repro.ntp.clock_filter import ClockFilter
from repro.ntp.cluster import ClusterCandidate, cluster_survivors
from repro.ntp.select import SelectInterval, intersection
from repro.ntp.sntp_client import SntpClient, SntpResult
from repro.ntp.wire import OffsetSample
from repro.simcore.simulator import Simulator


@dataclass
class DisciplineParams:
    """Discipline loop tunables.

    Attributes:
        min_poll_exp / max_poll_exp: Poll interval is 2^exp seconds.
        step_threshold: Offsets above this are stepped, not slewed.
        freq_damping: Fraction of the fitted residual slope folded into
            the frequency trim per window.
        freq_window_rounds: Rounds per frequency-fit window.
        freq_window_min_span: Minimum seconds a window must cover.
        max_freq_nudge_ppm: Per-window clamp on the frequency trim step.
        popcorn_gate: Offset-change multiple of the accepted-sample
            jitter EWMA treated as a burst artefact and skipped.
        popcorn_floor: Absolute floor for the popcorn gate (seconds).
        stepout: Seconds of uninterrupted skipping after which the
            excursion is accepted as a genuine clock step (ntpd's
            step-out is 900 s).
        poll_adapt_gate: Jitter multiplier gating poll-interval growth.
    """

    min_poll_exp: int = 4
    max_poll_exp: int = 7
    step_threshold: float = 0.128
    freq_damping: float = 0.7
    freq_window_rounds: int = 8
    freq_window_min_span: float = 90.0
    max_freq_nudge_ppm: float = 30.0
    popcorn_gate: float = 5.0
    popcorn_floor: float = 0.030
    stepout: float = 900.0
    poll_adapt_gate: float = 4.0


class NtpAssociation:
    """State for one upstream server: its clock filter and last sample."""

    def __init__(self, server_name: str) -> None:
        self.server_name = server_name
        self.clock_filter = ClockFilter()
        self.reachable = False
        self.last_sample: Optional[OffsetSample] = None

    def root_distance(self, now: float) -> float:
        """Root distance = delay/2 + dispersion of the best sample."""
        best = self.clock_filter.best(now)
        if best is None:
            return float("inf")
        return abs(best.delay) / 2.0 + best.dispersion


class ClockDiscipline:
    """The polling + discipline daemon.

    Args:
        sim: Simulation kernel.
        client: Wire querier bound to the clock being disciplined.
        corrector: Applies phase/frequency corrections.
        server_names: Upstream servers (>= 3 recommended so the
            intersection algorithm can out-vote a falseticker).
        params: Loop tunables.
    """

    def __init__(
        self,
        sim: Simulator,
        client: SntpClient,
        corrector: ClockCorrector,
        server_names: Sequence[str],
        params: DisciplineParams = DisciplineParams(),
    ) -> None:
        if not server_names:
            raise ValueError("discipline needs at least one server")
        self._sim = sim
        self.client = client
        self.corrector = corrector
        self.params = params
        self.associations: Dict[str, NtpAssociation] = {
            name: NtpAssociation(name) for name in server_names
        }
        self.poll_exp = params.min_poll_exp
        self.last_offset: Optional[float] = None
        self.last_jitter: float = 0.0
        self.updates = 0
        self.steps = 0
        self.popcorn_skips = 0
        self.delay_gate_skips = 0
        self._first_skip_time: Optional[float] = None
        self._jitter_ewma = 0.002
        self._min_delay: Optional[float] = None
        # Frequency-fit window: (epoch, offset + corrections applied so
        # far within this window) — i.e. uncorrected-space points.
        self._window: List[Tuple[float, float]] = []
        self._applied_phase_sum = 0.0
        self._running = False

    # -- lifecycle -----------------------------------------------------------

    def start(self, initial_delay: float = 0.0) -> None:
        """Begin the polling loop."""
        self._running = True
        self._sim.call_after(initial_delay, self._poll_round, label="ntpd:poll")

    def stop(self) -> None:
        """Halt after any in-flight round."""
        self._running = False

    @property
    def poll_interval(self) -> float:
        """Current poll interval in seconds."""
        return float(2 ** self.poll_exp)

    # -- polling ----------------------------------------------------------------

    def _poll_round(self) -> None:
        if not self._running:
            return
        fresh: List[Tuple[str, OffsetSample]] = []
        outstanding = {"count": len(self.associations)}

        def make_cb(assoc: NtpAssociation):
            def on_result(result: SntpResult) -> None:
                self._absorb(assoc, result)
                if result.ok:
                    assert result.sample is not None
                    fresh.append((assoc.server_name, result.sample))
                outstanding["count"] -= 1
                if outstanding["count"] == 0:
                    self._update_clock(fresh)
                    self._schedule_next()

            return on_result

        for assoc in self.associations.values():
            self.client.query(assoc.server_name, make_cb(assoc))

    def _absorb(self, assoc: NtpAssociation, result: SntpResult) -> None:
        if not result.ok:
            assoc.reachable = False
            return
        assert result.sample is not None
        s = result.sample
        assoc.reachable = True
        assoc.last_sample = s
        assoc.clock_filter.add(
            offset=s.offset,
            delay=s.delay,
            epoch=self._sim.now,
            dispersion=s.root_dispersion,
        )

    # -- mitigation + discipline ---------------------------------------------------

    def _survivor_names(self, now: float) -> Optional[List[str]]:
        """Run select + cluster over the filtered bests.

        Returns the names of the surviving (trustworthy) associations;
        an empty list means selection ran and rejected everyone (no
        majority agreement — do NOT update the clock); None means there
        was nothing to evaluate yet.
        """
        candidates: List[SelectInterval] = []
        meta: Dict[str, ClusterCandidate] = {}
        for assoc in self.associations.values():
            best = assoc.clock_filter.best(now)
            if best is None or not assoc.reachable:
                continue
            rootdist = assoc.root_distance(now)
            candidates.append(
                SelectInterval(
                    source=assoc.server_name, midpoint=best.offset, radius=rootdist
                )
            )
            meta[assoc.server_name] = ClusterCandidate(
                source=assoc.server_name,
                offset=best.offset,
                jitter=assoc.clock_filter.jitter(),
                root_distance=rootdist,
            )
        if not candidates:
            return None
        truechimers, _ = intersection(candidates)
        if not truechimers:
            return []
        survivors = cluster_survivors([meta[c.source] for c in truechimers])
        return [s.source for s in survivors]

    def _update_clock(self, fresh: List[Tuple[str, OffsetSample]]) -> None:
        if not fresh:
            return
        now = self._sim.now
        survivor_names = self._survivor_names(now)
        if survivor_names is not None and not survivor_names:
            # Selection ran and found no majority agreement: every
            # candidate may be a falseticker; refuse to touch the clock.
            self._sim.telemetry.emit(now, "ntpd", "no_majority")
            return
        if survivor_names is None:
            selected = [s for _, s in fresh]
        else:
            survivors = set(survivor_names)
            selected = [s for name, s in fresh if name in survivors] or [
                s for _, s in fresh
            ]
        # Phase estimate: the fresh sample with the lowest round-trip
        # delay among survivors — lowest asymmetry error right now.
        best = min(selected, key=lambda s: s.delay)
        offset = best.offset
        jitter = float(np.std([s.offset for s in selected])) if len(selected) > 1 else 0.0

        # Delay gate: a genuine clock step presents a large offset at a
        # normal round-trip delay, while an interference burst inflates
        # the delay along with the offset.  Samples whose delay is far
        # above the running floor carry too much asymmetry error to
        # drive the clock at all (this is why full NTP survives the
        # wireless hop where SNTP does not).
        if self._min_delay is None:
            self._min_delay = best.delay
        else:
            # Slow upward adaptation so a route change does not pin the
            # floor forever.
            self._min_delay = min(self._min_delay * 1.002, best.delay)
        if best.delay > max(0.010, 2.5 * self._min_delay):
            self.delay_gate_skips += 1
            self._sim.telemetry.emit(
                now, "ntpd", "delay_gate_skip", offset=offset, delay=best.delay,
                floor=self._min_delay,
            )
            return

        # Popcorn gate: a sudden large excursion is more likely a burst
        # of queueing asymmetry (wireless interference episode) than a
        # real clock change; skip it — unless it persists past the
        # step-out, in which case it is a genuine step.  The gate is
        # derived from an EWMA of accepted-sample changes only, so a
        # burst cannot widen its own gate.
        if self.last_offset is not None:
            gate = max(
                self.params.popcorn_floor,
                self.params.popcorn_gate * self._jitter_ewma,
            )
            if abs(offset - self.last_offset) > gate:
                if self._first_skip_time is None:
                    self._first_skip_time = now
                if now - self._first_skip_time < self.params.stepout:
                    self.popcorn_skips += 1
                    self._sim.telemetry.emit(
                        now, "ntpd", "popcorn_skip", offset=offset, gate=gate
                    )
                    return
            self._jitter_ewma = (
                0.75 * self._jitter_ewma + 0.25 * abs(offset - self.last_offset)
            )
        self._first_skip_time = None
        self.last_offset = offset
        self.last_jitter = jitter
        self.updates += 1

        # Record the uncorrected-space point before applying corrections.
        self._window.append((now, offset + self._applied_phase_sum))

        action = self.corrector.apply_offset(offset)
        if action == "step":
            self.steps += 1
        if action in ("step", "slew"):
            self._applied_phase_sum += offset
        self._maybe_trim_frequency()
        self._adapt_poll(offset, jitter)
        self._sim.telemetry.emit(
            now, "ntpd", "update", offset=offset, jitter=jitter, action=action
        )

    def _maybe_trim_frequency(self) -> None:
        p = self.params
        if len(self._window) < p.freq_window_rounds:
            return
        span = self._window[-1][0] - self._window[0][0]
        if span < p.freq_window_min_span:
            return
        t = np.asarray([w[0] for w in self._window])
        u = np.asarray([w[1] for w in self._window])
        slope = float(np.polyfit(t - t.mean(), u, 1)[0])
        # Uncorrected offset slope s implies residual local skew of -s;
        # nudge the trim to cancel a damped fraction of it.
        nudge = slope * p.freq_damping
        cap = p.max_freq_nudge_ppm * 1e-6
        nudge = max(-cap, min(cap, nudge))
        self.corrector.apply_frequency(-nudge)
        self._window.clear()
        self._applied_phase_sum = 0.0

    def _adapt_poll(self, offset: float, jitter: float) -> None:
        gate = max(1e-4, self.params.poll_adapt_gate * max(jitter, 1e-4))
        if abs(offset) < gate:
            self.poll_exp = min(self.params.max_poll_exp, self.poll_exp + 1)
        else:
            self.poll_exp = max(self.params.min_poll_exp, self.poll_exp - 1)

    def _schedule_next(self) -> None:
        if self._running:
            self._sim.call_after(self.poll_interval, self._poll_round, label="ntpd:poll")
