"""The tuner's logging component.

"The logging component runs on the TN of our testbed and emits SNTP
requests to multiple reference clocks every 5 seconds and records the
responses in the form of traces. It also records the corresponding
wireless hints from the channel every time an SNTP request is emitted."
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence

from repro.ntp.sntp_client import SntpResult
from repro.simcore.simulator import Simulator
from repro.testbed.nodes import Testbed, TestbedOptions
from repro.tuner.traces import OffsetTrace, TraceEntry


@dataclass
class LoggerOptions:
    """Trace-collection knobs.

    Attributes:
        duration: Seconds of trace to record (paper: the 4 h run).
        cadence: Seconds between sampling instants (paper: 5 s).
        sources: Reference clocks queried in parallel each instant.
        testbed: Environment the TN runs in (free-running clock by
            default, matching the §5.2 longer experiment).
    """

    duration: float = 4 * 3600.0
    cadence: float = 5.0
    sources: Sequence[str] = (
        "0.pool.ntp.org",
        "1.pool.ntp.org",
        "3.pool.ntp.org",
    )
    testbed: TestbedOptions = field(
        default_factory=lambda: TestbedOptions(wireless=True, ntp_correction=False)
    )

    def __post_init__(self) -> None:
        for name in ("duration", "cadence"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        if not self.sources:
            raise ValueError("sources must name at least one reference clock")


class TraceLogger:
    """Collects an :class:`OffsetTrace` from a simulated testbed run.

    The simulation runs uninstrumented (``instrument=False``): it is
    local to :meth:`run`, which returns only the trace, so no caller
    could ever read its telemetry, and telemetry never changes what a
    simulation computes.  Recording it would only cost time and memory.
    """

    def __init__(self, seed: int = 0, options: LoggerOptions = LoggerOptions()) -> None:
        self.seed = seed
        self.options = options

    def run(self) -> OffsetTrace:
        """Execute the collection run and return the trace.

        Entries are appended in sampling order.  An instant's entry is
        complete once all its queries have answered or timed out, which
        at a cadence below the query timeout can be after a later
        instant's; complete entries wait in a FIFO behind older ones.
        """
        opts = self.options
        sim = Simulator(seed=self.seed, instrument=False)
        testbed = Testbed(sim, opts.testbed)
        trace = OffsetTrace(cadence=opts.cadence)
        client = testbed.mntp_app
        # Entries in sampling order, each with its count of open queries.
        pending: Deque[List] = deque()

        def flush() -> None:
            while pending and pending[0][1] == 0:
                trace.append(pending.popleft()[0])

        def sample() -> None:
            if sim.now >= opts.duration:
                return
            hints = testbed.hints.read_hints()
            entry = TraceEntry(
                time=sim.now,
                rssi_dbm=hints.rssi_dbm,
                noise_dbm=hints.noise_dbm,
                true_offset=testbed.tn_clock.true_offset(),
            )
            slot = [entry, len(opts.sources)]
            pending.append(slot)
            results: Dict[str, Optional[float]] = {}

            def make_cb(source: str):
                def on_result(result: SntpResult) -> None:
                    if result.ok:
                        assert result.sample is not None
                        results[source] = result.sample.offset
                    else:
                        results[source] = None
                    slot[1] -= 1
                    if slot[1] == 0:
                        entry.offsets = dict(results)
                        flush()

                return on_result

            for source in opts.sources:
                client.query(source, make_cb(source), timeout=2.0)
            sim.call_after(opts.cadence, sample, label="tuner:sample")

        testbed.start_background()
        sim.call_after(0.0, sample, label="tuner:sample")
        sim.run_until(opts.duration + 5.0)  # let the final queries resolve
        testbed.stop_background()
        return trace
