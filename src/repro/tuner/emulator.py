"""Trace-driven MNTP emulation.

"The emulator is capable of running the MNTP algorithm using the
captured traces and wireless hints and prints the offsets reported by
MNTP."

The emulator replays Algorithm 1 against a recorded
:class:`~repro.tuner.traces.OffsetTrace` for an arbitrary
:class:`~repro.core.config.MntpConfig`: the hint gate defers sampling
instants whose recorded hints miss the thresholds, warm-up rounds use
the multi-source offsets with false-ticker rejection, regular rounds
the single source, and the shared :class:`~repro.core.filter.OffsetFilter`
makes accept/reject decisions.

Reported values are the *clock-corrected* offsets: each accepted
offset's residual against the running trend line — what a clock steered
by MNTP's drift estimate would still be off by.  The RMSE of these
against a perfectly synchronized clock (0 ms) is the tuner's accuracy
metric (Table 2).

:func:`replay_grid` is the loop.  It replays a whole grid of
configurations at once and splits only where their parameters lead to
different decisions, so a warm-up that several configurations share is
replayed once; :meth:`MntpEmulator.run` is its one-configuration case.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, fields, replace
from typing import Dict, List, Sequence, Tuple

from repro.core.config import MntpConfig
from repro.core.falsetickers import reject_false_tickers
from repro.core.filter import OffsetFilter
from repro.core.thresholds import favorable_snr_condition
from repro.metrics.stats import rmse
from repro.tuner.traces import TraceEntry


@dataclass
class EmulationResult:
    """Outcome of one emulated configuration.

    Attributes:
        reported: (time, corrected offset) pairs for accepted samples
            past bootstrap.
        raw_accepted: (time, raw offset) pairs for all accepted samples.
        rejected: (time, raw offset) pairs the filter rejected.
        deferred: Sampling instants skipped by the hint gate.
        requests: SNTP requests the configuration generated.
        resets: Full algorithm restarts (reset period expiries).
        warmup_completions: Times the warm-up phase finished.
    """

    reported: List[Tuple[float, float]] = field(default_factory=list)
    raw_accepted: List[Tuple[float, float]] = field(default_factory=list)
    rejected: List[Tuple[float, float]] = field(default_factory=list)
    deferred: int = 0
    requests: int = 0
    resets: int = 0
    warmup_completions: int = 0

    def rmse(self) -> float:
        """RMSE of the corrected offsets vs a perfect clock (seconds)."""
        return rmse([offset for _, offset in self.reported])

    def rmse_ms(self) -> float:
        """RMSE in milliseconds (Table 2's unit)."""
        return self.rmse() * 1000.0


#: The four Algorithm 1 inputs a grid search sweeps.  Configurations
#: that differ in nothing else can share a replay.
_SWEPT = ("reset_period", "warmup_period", "warmup_wait_time", "regular_wait_time")


class MntpEmulator:
    """Replays MNTP over a trace for one configuration."""

    def __init__(self, trace, config: MntpConfig) -> None:
        self.trace = trace
        self.config = config

    def run(self) -> EmulationResult:
        """Execute the replay: the one-configuration case of :func:`replay_grid`."""
        return replay_grid(self.trace, [self.config])[0]


def replay_grid(trace, configs: Sequence[MntpConfig]) -> List[EmulationResult]:
    """Replay Algorithm 1 over ``trace`` for every configuration at once.

    Returns one result per configuration, in input order, each equal to
    a replay of that configuration alone.  Configurations that agree on
    every field but the four swept parameters replay as one tree.  A
    branch of configurations shares one filter, result and set of loop
    variables as long as the swept values the loop has read lead every
    member to the same state: the reset and warm-up completion checks
    give the same outcome, and the wait read after each step is equal.
    Where they would not, the branch splits (by the check's outcome, or
    by the wait's value) before anything is mutated at that entry, and
    each part continues from its own copy of the state.
    """
    entries = list(trace)
    groups: Dict[tuple, List[int]] = {}
    for index, cfg in enumerate(configs):
        key = tuple(getattr(cfg, f.name) for f in fields(cfg) if f.name not in _SWEPT)
        groups.setdefault(key, []).append(index)
    results: Dict[int, EmulationResult] = {}
    for members in groups.values():
        _replay_group(entries, configs, members, results)
    return [results[index] for index in range(len(configs))]


def _replay_group(
    entries: List[TraceEntry],
    configs: Sequence[MntpConfig],
    members: List[int],
    results: Dict[int, EmulationResult],
) -> None:
    """Replay one group of configurations sharing their non-swept fields,
    writing each member's result into ``results``."""
    cfg = configs[members[0]]  # every field read through it is shared
    fil = OffsetFilter(
        min_samples=cfg.min_warmup_samples,
        gate_floor=cfg.filter_gate_floor,
        max_consecutive_rejections=cfg.max_consecutive_rejections,
        two_sided=cfg.two_sided_rejection,
        reestimate_every_sample=cfg.reestimate_every_sample,
    )
    # Hint gate (steps 5 / 17): its verdict reads no swept parameter,
    # so every branch of the group shares one verdict per entry.
    thresholds = cfg.thresholds
    deferred_at = ([not favorable_snr_condition(entry, thresholds) for entry in entries]
                   if cfg.enable_hint_gate else [False] * len(entries))
    start = entries[0].time if entries else 0.0
    # (members, next entry, filter, result, in warm-up, phase start,
    #  algorithm start, next action)
    stack = [(members, 0, fil, EmulationResult(), True, start, start, start)]
    while stack:
        (members, first, fil, result, warmup, phase_start, algorithm_start,
         next_action) = stack.pop()
        reset_lo, reset_hi = _bounds(configs, members, "reset_period")
        warmup_lo, warmup_hi = _bounds(configs, members, "warmup_period")
        warmup_waits = _bounds(configs, members, "warmup_wait_time")
        regular_waits = _bounds(configs, members, "regular_wait_time")
        split = None
        for index in range(first, len(entries)):
            entry = entries[index]
            time = entry.time
            if time < next_action:
                continue

            # Every swept value this entry reads is read before any
            # state changes, so a divergent branch splits cleanly here.
            # Reset check (Algorithm 1 step 23).  ``elapsed >= period``
            # can only turn from True to False as the period grows, so
            # when the branch's shortest and longest periods give the
            # same outcome, every member's period does.
            elapsed = time - algorithm_start
            reset = elapsed >= reset_hi
            if reset != (elapsed >= reset_lo):
                split = ("reset_period", elapsed)
                break
            # Warm-up completion check (step 11).
            complete = False
            if warmup or reset:
                elapsed = time - (time if reset else phase_start)
                complete = elapsed >= warmup_hi
                if complete != (elapsed >= warmup_lo):
                    split = ("warmup_period", elapsed)
                    break
            warmup_step = (warmup or reset) and not complete
            # A deferred instant retries at the next trace entry without
            # consuming the wait time.
            gated = deferred_at[index]
            if not gated:
                wait, longest = warmup_waits if warmup_step else regular_waits
                if wait != longest:
                    split = ("warmup_wait_time" if warmup_step else "regular_wait_time", None)
                    break

            if reset:
                fil.reset()
                warmup = True
                phase_start = time
                algorithm_start = time
                result.resets += 1
            if complete:
                warmup = False
                phase_start = time
                result.warmup_completions += 1
            if gated:
                result.deferred += 1
                continue

            if warmup:
                offsets = {
                    source: value
                    for source, value in entry.offsets.items()
                    if source in cfg.warmup_pools and value is not None
                }
                result.requests += len(
                    [s for s in entry.offsets if s in cfg.warmup_pools]
                )
                if offsets:
                    verdict = reject_false_tickers(offsets)
                    _offer(cfg, fil, time, verdict.combined_offset, result)
            else:
                value = entry.offsets.get(cfg.regular_source)
                if value is None and entry.offsets:
                    # Fall back to any responding source; a real MNTP
                    # would retry, the trace only has what was recorded.
                    value = next(
                        (v for v in entry.offsets.values() if v is not None), None
                    )
                result.requests += 1
                if value is not None:
                    _offer(cfg, fil, time, value, result)
            next_action = time + wait

        if split is None:
            results[members[0]] = result
            for member in members[1:]:
                results[member] = _copy_result(result)
            continue
        # A period check splits by its outcome, a wait by its value.
        name, elapsed = split
        branches: Dict[object, List[int]] = {}
        for member in members:
            value = getattr(configs[member], name)
            key = value if elapsed is None else elapsed >= value
            branches.setdefault(key, []).append(member)
        for number, branch in enumerate(branches.values()):
            forked = number > 0
            stack.append((
                branch, index,
                copy.deepcopy(fil) if forked else fil,
                _copy_result(result) if forked else result,
                warmup, phase_start, algorithm_start, next_action,
            ))


def _bounds(configs: Sequence[MntpConfig], members: List[int], name: str):
    """(shortest, longest) of the members' values of field ``name``."""
    values = [getattr(configs[member], name) for member in members]
    return min(values), max(values)


def _copy_result(result: EmulationResult) -> EmulationResult:
    return replace(
        result,
        reported=list(result.reported),
        raw_accepted=list(result.raw_accepted),
        rejected=list(result.rejected),
    )


def _offer(
    cfg: MntpConfig, fil: OffsetFilter, time: float, offset: float,
    result: EmulationResult,
) -> None:
    if not cfg.enable_filter:
        fil.trend.add(time, offset)
        result.raw_accepted.append((time, offset))
        predicted = fil.trend.predict(time)
        if predicted is not None:
            result.reported.append((time, offset - predicted))
        return
    outcome = fil.offer(time, offset)
    if outcome.decision.accepted:
        result.raw_accepted.append((time, offset))
        if outcome.predicted == outcome.predicted:  # not NaN
            result.reported.append((time, offset - outcome.predicted))
    else:
        result.rejected.append((time, offset))
