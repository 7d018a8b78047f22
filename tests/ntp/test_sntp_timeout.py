"""Timeout-path behaviour of the SNTP client."""

from repro.ntp.server import ServerConfig
from repro.ntp.sntp_client import HardeningPolicy
from repro.simcore.simulator import Simulator
from tests.ntp.helpers import MiniNet


def _exchange_spans(sim):
    sim.telemetry.spans.end_all()
    return [
        r for r in sim.telemetry.snapshot()["records"]
        if r.component == "span" and r.kind == "sntp.exchange"
    ]


def test_timeout_fires_and_is_counted():
    sim = Simulator(seed=1)
    net = MiniNet(sim, [ServerConfig(name="pool", processing_delay=1e-6)])
    net.servers["pool"].faults.dead = 1
    results = []
    net.client.query("pool", results.append, timeout=1.5)
    sim.run_until(10.0)
    assert len(results) == 1 and results[0].timed_out
    assert net.client.timeouts == 1
    assert not net.client._pending  # table drained
    spans = _exchange_spans(sim)
    assert len(spans) == 1
    assert spans[0].data["outcome"] == "timeout"
    assert spans[0].data["t1"] - spans[0].data["t0"] == 1.5


def test_response_cancels_timeout_no_double_callback():
    sim = Simulator(seed=1)
    net = MiniNet(sim, [ServerConfig(name="pool", processing_delay=1e-6)])
    results = []
    net.client.query("pool", results.append, timeout=2.0)
    sim.run_until(30.0)  # far past the timeout deadline
    assert len(results) == 1 and results[0].ok
    assert net.client.timeouts == 0
    assert _exchange_spans(sim)[0].data["outcome"] == "ok"


def test_late_response_after_timeout_is_ignored():
    sim = Simulator(seed=1)
    # One-way delay of 0.5 s against a 0.2 s timeout: the reply is in
    # flight when the timeout fires and lands on an empty pending table.
    net = MiniNet(sim, [ServerConfig(name="pool", processing_delay=1e-6)],
                  owd=0.5)
    results = []
    net.client.query("pool", results.append, timeout=0.2)
    sim.run_until(5.0)
    assert len(results) == 1 and results[0].timed_out
    assert net.client.timeouts == 1
    assert net.client.responses_received == 0  # straggler dropped silently
    assert net.servers["pool"].requests_seen == 1


def test_timeout_opens_backoff_under_hardening():
    sim = Simulator(seed=1)
    net = MiniNet(sim, [ServerConfig(name="pool", processing_delay=1e-6)],
                  hardening=HardeningPolicy(jitter_frac=0.0, backoff_base=5.0))
    net.servers["pool"].faults.dead = 1
    net.client.query("pool", lambda r: None, timeout=1.0)
    sim.run_until(2.0)
    health = net.client.health["pool"]
    assert health.consecutive_failures == 1
    assert health.backoff_until == 1.0 + 5.0  # timeout time + base window
    # After the window the server is queried again over the wire.
    net.servers["pool"].faults.dead = 0
    results = []
    sim.call_at(7.0, lambda: net.client.query("pool", results.append))
    sim.run_until(10.0)
    assert results and results[0].ok
    assert health.consecutive_failures == 0
