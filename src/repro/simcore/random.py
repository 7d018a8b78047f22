"""Per-component random number stream management.

Every stochastic component in the library (channel model, clock wander,
path jitter, server population, ...) draws from its own named child
stream of a single root seed.  This gives two properties the experiments
rely on:

* **Reproducibility** — the same root seed always produces the same
  experiment, byte for byte.
* **Isolation** — adding draws to one component does not perturb the
  sequences seen by any other component, so ablations compare like with
  like.

A stream that one distribution owns for its consumer's lifetime (clock
wander, server turnaround, pool member picks, the ping and the
cross-traffic timings) is read through :func:`block_reader`: numpy
returns the same values from one call of size n as from n scalar calls,
so every result is unchanged and the per-call overhead is paid once
per block.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Callable, Dict

import numpy as np

#: Draws one block fill takes from a stream.  A reader's generator runs
#: at most this many draws ahead of the values handed out, and each live
#: reader holds one block as a numpy array (8 bytes a draw).
BLOCK_SIZE = 64


def block_reader(fill: Callable[[int], np.ndarray]) -> Callable[[], Any]:
    """Return a callable that hands out ``fill``'s draws one at a time.

    ``fill(n)`` returns ``n`` draws of one distribution from one stream,
    e.g. ``rng.standard_normal`` or ``lambda n: rng.integers(0, k, n)``.
    It is called for :data:`BLOCK_SIZE` draws at a time, on the first
    call and then whenever the block runs out.  numpy's ``size=n`` calls
    of ``standard_normal``, ``standard_exponential``, ``random``,
    ``standard_gamma(k)`` and ``integers(0, k)`` return the values of
    ``n`` scalar calls, in order, so each value equals the scalar draw
    it replaces; only the generator's position runs ahead.  Use a reader
    only on a stream nothing else draws from while the reader lives:
    another draw would start from that later position.

    Values come out as Python ``float``/``int``, as scalar calls return
    them: iterating a ``memoryview`` of the block converts one value at
    a time, so the block stays a compact array until it is read.
    """
    blocks = iter(lambda: memoryview(fill(BLOCK_SIZE)), None)
    return chain.from_iterable(blocks).__next__


class RngRegistry:
    """Factory of named, independent :class:`numpy.random.Generator` streams."""

    def __init__(self, seed: int = 0) -> None:
        if seed < 0:
            raise ValueError("root seed must be non-negative")
        self._seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        The child seed is derived from (root seed, name) via
        ``numpy.random.SeedSequence`` spawn-key semantics, so streams are
        statistically independent and stable across runs.
        """
        if name not in self._streams:
            # Hash the name into a stable integer entropy contribution.
            name_entropy = [ord(c) for c in name]
            seq = np.random.SeedSequence(entropy=self._seed, spawn_key=tuple(name_entropy))
            self._streams[name] = np.random.Generator(np.random.PCG64(seq))
        return self._streams[name]
