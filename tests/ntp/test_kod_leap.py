"""Kiss-of-death rate limiting and unsynchronized-server handling."""

import pytest

from repro.ntp.server import ServerConfig, ServerPersona
from repro.simcore.simulator import Simulator
from tests.ntp.helpers import MiniNet


def _poll_many(sim, net, server, n, gap=1.0, timeout=0.5):
    results = []
    for i in range(n):
        sim.call_after(
            i * gap,
            lambda: net.client.query(server, results.append, timeout=timeout),
        )
    return results


def test_rate_limited_server_sends_kod_after_budget():
    sim = Simulator(seed=1)
    net = MiniNet(sim, [ServerConfig(
        name="pool", persona=ServerPersona.RATE_LIMITED, rate_limit=3,
        processing_delay=1e-6,
    )])
    results = _poll_many(sim, net, "pool", 6)
    sim.run_until(30.0)
    ok = [r for r in results if r.ok]
    kod = [r for r in results if r.kiss_of_death]
    assert len(ok) == 3
    assert kod  # the 4th request drew a KoD
    assert net.servers["pool"].kod_sent >= 1


def test_client_backs_off_after_kod():
    sim = Simulator(seed=1)
    net = MiniNet(sim, [ServerConfig(
        name="pool", persona=ServerPersona.RATE_LIMITED, rate_limit=1,
        processing_delay=1e-6,
    )])
    results = _poll_many(sim, net, "pool", 10, gap=2.0)
    sim.run_until(60.0)
    # After the first KoD the client stops hitting the wire.
    server = net.servers["pool"]
    assert server.requests_seen <= 3  # 1 ok + 1 KoD trigger (+ slack)
    assert net.client.kod_received >= 1
    backed_off = [r for r in results if r.kiss_of_death and not r.ok]
    assert len(backed_off) >= 7  # the rest failed locally


def test_backoff_expires():
    sim = Simulator(seed=1)
    net = MiniNet(sim, [ServerConfig(
        name="pool", persona=ServerPersona.RATE_LIMITED, rate_limit=1,
        processing_delay=1e-6,
    )])
    net.client.kod_backoff = 10.0
    net.client.min_kod_holdoff = 10.0  # the floor would otherwise win
    results = []
    net.client.query("pool", results.append)     # ok
    sim.run_until(1.0)
    net.client.query("pool", results.append)     # KoD
    sim.run_until(2.0)
    net.client.query("pool", results.append)     # local back-off
    sim.run_until(15.0)
    net.client.query("pool", results.append)     # back-off expired: wire again
    sim.run_until(20.0)
    assert results[0].ok
    assert results[1].kiss_of_death
    assert results[2].kiss_of_death
    assert net.servers["pool"].requests_seen == 3  # 3rd never hit the wire


def test_unsynchronized_server_rejected():
    sim = Simulator(seed=1)
    net = MiniNet(sim, [ServerConfig(
        name="lost", persona=ServerPersona.UNSYNCHRONIZED, processing_delay=1e-6,
    )])
    results = []
    net.client.query("lost", results.append)
    sim.run_until(5.0)
    assert len(results) == 1
    assert not results[0].ok
    assert results[0].unsynchronized
    assert not results[0].kiss_of_death


def test_mntp_survives_rate_limited_pool():
    """MNTP polling a rate-limited source keeps running (failures are
    just query_failed events)."""
    from repro.clock.discipline_api import ClockCorrector
    from repro.core.config import MntpConfig
    from repro.core.protocol import Mntp
    from repro.wireless.hints import ALWAYS_FAVORABLE, StaticHintProvider

    sim = Simulator(seed=1)
    configs = [
        ServerConfig(name=name, persona=ServerPersona.RATE_LIMITED,
                     rate_limit=5, processing_delay=1e-6)
        for name in ("0.pool.ntp.org", "1.pool.ntp.org", "3.pool.ntp.org")
    ]
    net = MiniNet(sim, configs)
    mntp = Mntp(
        sim, net.client, StaticHintProvider(ALWAYS_FAVORABLE),
        ClockCorrector(net.client_clock),
        config=MntpConfig(
            warmup_period=120.0, warmup_wait_time=5.0,
            regular_wait_time=10.0, reset_period=3600.0,
            min_warmup_samples=3, query_timeout=1.0,
        ),
    )
    mntp.start()
    sim.run_until(600.0)
    # Early rounds succeed; later ones draw KoD and back off — but the
    # protocol never crashes and recorded some offsets.
    assert mntp.accepted_offsets()
    assert net.client.kod_received > 0
