"""Pool DNS emulation.

``0.pool.ntp.org``-style names resolve, per query, to a random member
of a rotating server pool — the paper notes "every SNTP request to the
pool server is randomly assigned to a new NTP time reference enabling
unbiased time server selection".  :class:`PoolDns` reproduces that:
each resolution draws a member uniformly at random.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

from repro.ntp.server import NtpServer
from repro.simcore.random import block_reader


class PoolDns:
    """Maps pool hostnames to rotating member servers.

    While every pool has the same size, each pick is the same
    ``integers(0, size)`` draw, so the picks are read from the stream a
    block at a time from the first pool resolve on; pools of mixed sizes
    draw one scalar per pick.

    Args:
        rng: Random stream used for per-query member selection.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self._pools: Dict[str, List[NtpServer]] = {}
        # The size every pool shares (None while sizes are mixed), and
        # the block-read picks for it once a pool has been resolved.
        self._one_size: Optional[int] = None
        self._picks: Optional[Callable[[], int]] = None

    def register(self, pool_name: str, members: List[NtpServer]) -> None:
        """Associate ``pool_name`` with its member servers.

        Raises:
            ValueError: If ``members`` is empty, or if picks are already
                read in blocks for another pool size: the stream has run
                ahead of the picks made, so a pool of a new size would
                draw from a different position than scalar picks leave.
        """
        if not members:
            raise ValueError("a pool needs at least one member")
        if self._picks is not None and len(members) != self._one_size:
            raise ValueError(
                f"pool {pool_name!r} has {len(members)} members, but picks for "
                f"pools of {self._one_size} are already drawn; register every "
                "pool before the first resolve"
            )
        self._pools[pool_name] = list(members)
        sizes = {len(pool) for pool in self._pools.values()}
        self._one_size = sizes.pop() if len(sizes) == 1 else None

    def pool_names(self) -> List[str]:
        """Registered pool hostnames."""
        return list(self._pools)

    def members(self, pool_name: str) -> List[NtpServer]:
        """All members of a pool."""
        return list(self._pools[pool_name])

    def resolve(self, name: str) -> NtpServer:
        """Resolve ``name`` to a concrete server.

        Pool names rotate randomly per query; non-pool names must match
        a member's configured name exactly.
        """
        members = self._pools.get(name)
        if members is not None:
            if self._picks is None:
                size = self._one_size
                if size is None:
                    return members[int(self._rng.integers(0, len(members)))]
                self._picks = block_reader(lambda n: self._rng.integers(0, size, n))
            return members[self._picks()]
        for members in self._pools.values():
            for server in members:
                if server.config.name == name:
                    return server
        raise KeyError(f"unknown server or pool: {name!r}")
