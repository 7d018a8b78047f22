"""Pool DNS rotation."""

import numpy as np
import pytest

from repro.ntp.pool import PoolDns
from repro.ntp.server import NtpServer, ServerConfig
from repro.simcore.simulator import Simulator
from tests.ntp.helpers import perfect_clock


def _servers(sim, names):
    return [
        NtpServer(sim, perfect_clock(sim, stream=f"c:{n}"), ServerConfig(name=n))
        for n in names
    ]


def test_resolve_rotates_members():
    sim = Simulator(seed=1)
    dns = PoolDns(np.random.default_rng(0))
    members = _servers(sim, ["a", "b", "c", "d"])
    dns.register("pool", members)
    seen = {dns.resolve("pool").config.name for _ in range(200)}
    assert seen == {"a", "b", "c", "d"}


def test_resolve_exact_member_name():
    sim = Simulator(seed=1)
    dns = PoolDns(np.random.default_rng(0))
    dns.register("pool", _servers(sim, ["a", "b"]))
    assert dns.resolve("b").config.name == "b"


def test_unknown_name_raises():
    dns = PoolDns(np.random.default_rng(0))
    with pytest.raises(KeyError):
        dns.resolve("nope")


def test_empty_pool_rejected():
    dns = PoolDns(np.random.default_rng(0))
    with pytest.raises(ValueError):
        dns.register("pool", [])


def test_members_and_names():
    sim = Simulator(seed=1)
    dns = PoolDns(np.random.default_rng(0))
    members = _servers(sim, ["a", "b"])
    dns.register("pool", members)
    assert dns.pool_names() == ["pool"]
    assert len(dns.members("pool")) == 2


def test_rotation_roughly_uniform():
    sim = Simulator(seed=1)
    dns = PoolDns(np.random.default_rng(7))
    dns.register("pool", _servers(sim, ["a", "b", "c"]))
    counts = {"a": 0, "b": 0, "c": 0}
    for _ in range(3000):
        counts[dns.resolve("pool").config.name] += 1
    for count in counts.values():
        assert count == pytest.approx(1000, rel=0.2)


def test_equal_pools_resolve_as_scalar_integer_calls():
    sim = Simulator(seed=1)
    dns = PoolDns(np.random.default_rng(3))
    pools = {"p": _servers(sim, ["a", "b", "c"]), "q": _servers(sim, ["d", "e", "f"])}
    for name, members in pools.items():
        dns.register(name, members)
    reference = np.random.default_rng(3)
    for i in range(200):
        name = "pq"[i % 2]
        want = pools[name][int(reference.integers(0, 3))]
        assert dns.resolve(name) is want


def test_mixed_size_pools_resolve_as_scalar_integer_calls():
    sim = Simulator(seed=1)
    dns = PoolDns(np.random.default_rng(3))
    pools = {"p": _servers(sim, ["a", "b"]), "q": _servers(sim, ["c", "d", "e"])}
    for name, members in pools.items():
        dns.register(name, members)
    reference = np.random.default_rng(3)
    for i in range(200):
        name = "q" if i % 3 == 0 else "p"
        members = pools[name]
        assert dns.resolve(name) is members[int(reference.integers(0, len(members)))]
    assert dns._rng.bit_generator.state == reference.bit_generator.state


def test_pool_of_new_size_after_block_picks_rejected():
    sim = Simulator(seed=1)
    dns = PoolDns(np.random.default_rng(3))
    dns.register("p", _servers(sim, ["a", "b"]))
    dns.register("p2", _servers(sim, ["c", "d", "e"]))
    dns.register("p2", _servers(sim, ["c", "d"]))  # before any resolve: fine
    dns.resolve("p")
    dns.register("q", _servers(sim, ["f", "g"]))  # the same size: fine
    with pytest.raises(ValueError, match="register every pool before"):
        dns.register("r", _servers(sim, ["h", "i", "j"]))
