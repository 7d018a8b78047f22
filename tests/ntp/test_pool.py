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
