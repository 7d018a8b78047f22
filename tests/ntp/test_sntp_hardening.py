"""Hardened-client behaviour: backoff, failover, caps, validation."""

import pytest

from repro.ntp.server import ServerConfig
from repro.ntp.sntp_client import HardeningPolicy, ServerHealth
from repro.simcore.simulator import Simulator
from tests.ntp.helpers import MiniNet

POLICY = HardeningPolicy(jitter_frac=0.0)  # exact windows for assertions


def test_policy_validation():
    with pytest.raises(ValueError):
        HardeningPolicy(backoff_base=0.0)
    with pytest.raises(ValueError):
        HardeningPolicy(backoff_factor=0.5)
    with pytest.raises(ValueError):
        HardeningPolicy(jitter_frac=1.0)
    with pytest.raises(ValueError):
        HardeningPolicy(health_decay=1.0)


def test_backoff_window_grows_exponentially_and_resets():
    health = ServerHealth("srv")
    policy = HardeningPolicy(backoff_base=1.0, backoff_factor=2.0,
                             backoff_max=8.0, jitter_frac=0.0)
    for expected in (1.0, 2.0, 4.0, 8.0, 8.0):  # capped at backoff_max
        health.record_failure(100.0, policy, jitter=1.0)
        assert health.backoff_until == pytest.approx(100.0 + expected)
    assert health.score < 1.0
    health.record_success(policy)
    assert health.consecutive_failures == 0
    assert health.backoff_until == 0.0
    # The streak restarts from the base window after a success.
    health.record_failure(200.0, policy, jitter=1.0)
    assert health.backoff_until == pytest.approx(201.0)


def test_failed_server_enters_backoff_and_query_fails_fast():
    sim = Simulator(seed=1)
    net = MiniNet(sim, [ServerConfig(name="pool", processing_delay=1e-6)],
                  hardening=POLICY)
    net.servers["pool"].faults.dead = 1
    results = []
    net.client.query("pool", results.append, timeout=0.5)
    sim.run_until(1.0)
    assert results[0].timed_out
    # Within the backoff window and with no peers: fail locally.
    net.client.query("pool", results.append, timeout=0.5)
    sim.run_until(1.2)
    assert results[1].backed_off
    assert net.client.backed_off_queries == 1
    assert net.servers["pool"].requests_seen == 1  # wire touched once


def test_failover_reroutes_to_healthy_peer():
    sim = Simulator(seed=1)
    net = MiniNet(sim, [
        ServerConfig(name="a", processing_delay=1e-6),
        ServerConfig(name="b", processing_delay=1e-6),
    ], hardening=POLICY)
    net.client.set_failover_peers(["a", "b"])
    net.servers["a"].faults.dead = 1
    results = []
    net.client.query("a", results.append, timeout=0.5)
    sim.run_until(1.0)
    assert results[0].timed_out
    net.client.query("a", results.append, timeout=0.5)
    sim.run_until(2.0)
    assert results[1].ok
    assert results[1].server_name == "b"
    assert net.client.failovers == 1
    # Success on b raised its health; a's failure lowered its score.
    assert net.client.health["b"].score > net.client.health["a"].score


def test_no_failover_when_disabled():
    sim = Simulator(seed=1)
    net = MiniNet(sim, [
        ServerConfig(name="a", processing_delay=1e-6),
        ServerConfig(name="b", processing_delay=1e-6),
    ], hardening=HardeningPolicy(jitter_frac=0.0, failover=False))
    net.client.set_failover_peers(["a", "b"])
    net.servers["a"].faults.dead = 1
    results = []
    net.client.query("a", results.append, timeout=0.5)
    sim.run_until(1.0)
    net.client.query("a", results.append, timeout=0.5)
    sim.run_until(1.2)
    assert results[1].backed_off
    assert net.client.failovers == 0


def test_backoff_jitter_is_seed_deterministic():
    def windows(seed):
        sim = Simulator(seed=seed)
        net = MiniNet(sim, [ServerConfig(name="pool", processing_delay=1e-6)],
                      hardening=HardeningPolicy(jitter_frac=0.5))
        net.servers["pool"].faults.dead = 1
        net.client.query("pool", lambda r: None, timeout=0.5)
        sim.run_until(1.0)
        return net.client.health["pool"].backoff_until

    assert windows(5) == windows(5)
    assert windows(5) != windows(6)


def test_kod_holdoff_floor_applies_without_usable_hint():
    from repro.ntp.packet import NtpPacket

    sim = Simulator(seed=1)
    net = MiniNet(sim, [ServerConfig(name="pool", processing_delay=1e-6)])
    net.client.kod_backoff = 30.0
    net.client.min_kod_holdoff = 120.0
    # poll=0 carries no retry hint: the configured backoff applies,
    # floored by min_kod_holdoff.
    assert net.client._kod_holdoff(NtpPacket(poll=0)) == 120.0
    # An implausibly large hint is also replaced by the floored backoff.
    assert net.client._kod_holdoff(NtpPacket(poll=30)) == 120.0
    # A plausible hint above the floor is honoured (2^8 = 256 s).
    assert net.client._kod_holdoff(NtpPacket(poll=8)) == 256.0
    # A plausible but tiny hint is floored (2^2 = 4 s < 120 s).
    assert net.client._kod_holdoff(NtpPacket(poll=2)) == 120.0


def test_pending_table_is_capped_with_eviction():
    sim = Simulator(seed=1)
    net = MiniNet(sim, [ServerConfig(name="pool", processing_delay=1e-6)])
    net.client.max_pending = 4
    net.servers["pool"].faults.dead = 1
    results = []
    for _ in range(6):
        net.client.query("pool", results.append, timeout=60.0)
    assert len(net.client._pending) == 4
    assert net.client.pending_evictions == 2
    assert len(results) == 2 and all(r.timed_out for r in results)
    sim.run_until(120.0)
    assert len(results) == 6  # the capped four eventually timed out


def test_zeroed_transmit_timestamp_rejected_not_crashing():
    sim = Simulator(seed=1)
    net = MiniNet(sim, [ServerConfig(name="pool", processing_delay=1e-6)])
    net.servers["pool"].faults.zero_transmit = 1
    results = []
    net.client.query("pool", results.append)
    sim.run_until(5.0)
    assert len(results) == 1
    assert results[0].invalid and not results[0].ok
    assert net.client.invalid_received == 1
    assert net.client.timeouts == 0  # rejected on arrival, not by timer


def test_plain_client_unchanged_by_hardening_code():
    """A client without a policy keeps the baseline metric/RNG surface."""
    sim = Simulator(seed=1)
    net = MiniNet(sim, [ServerConfig(name="pool", processing_delay=1e-6)])
    results = []
    net.client.query("pool", results.append)
    sim.run_until(5.0)
    assert results[0].ok
    assert net.client.health == {}
    names = {m["name"] for m in sim.telemetry.snapshot()["metrics"]}
    assert "sntp_failovers_total" not in names
    assert "sntp_backed_off_queries_total" not in names
