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
"""

from __future__ import annotations

from typing import Dict

import numpy as np


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
