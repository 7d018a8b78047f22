"""A fixed pure-Python reference task that measures the host's current speed.

Host time on a shared VM drifts by tens of percent over seconds to
minutes, as co-tenants come and go.  The worker runs this task right
before and right after every timed pass; a pass's host time divided by
the mean of its two reference times no longer carries that drift, and
multiplied by :data:`NOMINAL_S` it reads as host seconds on a quiet host.

The task is interpreter-bound like the simulator (function calls, slot
attributes, list and dict access, float arithmetic) and allocates no
object the garbage collector tracks, so its time does not depend on the
program's heap.  It never imports the program: an optimisation of the
program leaves it unchanged.
"""

from __future__ import annotations

import time

#: Iterations of one reference run (about 0.15 s on the 2-vCPU VM).
ITERATIONS = 1_200_000

#: Seconds one reference run takes on a quiet host of that VM.
NOMINAL_S = 0.15


class _Probe:
    __slots__ = ("total", "count")

    def __init__(self) -> None:
        self.total = 0.0
        self.count = 0


def _step(probe: _Probe, table: list, i: int) -> None:
    probe.total += table[i & 255] * 0.5
    probe.count += 1


def _work(iterations: int) -> int:
    probe = _Probe()
    table = [float(k % 17) for k in range(256)]
    index = {}
    for i in range(iterations):
        _step(probe, table, i)
        if i & 1023 == 0:
            index[i] = probe.total
    return probe.count + len(index)


def reference_s(iterations: int = ITERATIONS) -> float:
    """Host seconds of one reference run."""
    start = time.perf_counter()
    _work(iterations)
    return time.perf_counter() - start
