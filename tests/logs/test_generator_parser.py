"""Trace generation and parsing (the §3.1 pipeline plumbing)."""

import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.logs.generator import GeneratorOptions, TraceGenerator, TRACE_EPOCH_UNIX
from repro.logs.parser import parse_trace
from repro.logs.servers import server_by_id
from repro.pcaplib.pcap import PcapReader


OPTS = GeneratorOptions(scale=1e-4, min_clients=20, max_clients=60,
                        max_requests_per_client=20)


def _generate(server_id="JW2", seed=3, options=OPTS):
    gen = TraceGenerator(server_by_id(server_id), seed=seed, options=options)
    return gen, gen.generate()


def test_generates_valid_pcap():
    gen, data = _generate()
    records = PcapReader(io.BytesIO(data)).read_all()
    assert records
    # Request + response per exchange.
    total_requests = sum(c.requests for c in gen.clients)
    assert len(records) == 2 * total_requests


def test_records_time_ordered():
    _, data = _generate()
    records = PcapReader(io.BytesIO(data)).read_all()
    times = [r.ts for r in records]
    assert times == sorted(times)


def test_deterministic():
    _, a = _generate(seed=5)
    _, b = _generate(seed=5)
    assert a == b
    _, c = _generate(seed=6)
    assert a != c


def test_pcap_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    """An ISP-internal server's trace is a function of the seed alone,
    not of the per-process ``str`` hash salt."""
    root = Path(__file__).resolve().parents[2]
    written = []
    for hash_seed in ("0", "1"):
        out = tmp_path / hash_seed
        env = dict(os.environ, PYTHONPATH=str(root / "src"),
                   PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "--seed", "3", "pcap",
             str(out), "--servers", "CI3", "--scale", "1e-4"],
            capture_output=True, text=True, env=env, cwd=root,
        )
        assert proc.returncode == 0, proc.stderr
        written.append((out / "CI3.pcap").read_bytes())
    assert written[0] == written[1]


def test_parser_recovers_every_client():
    gen, data = _generate()
    observations = parse_trace(data, pivot_unix=TRACE_EPOCH_UNIX)
    generated_ips = {c.ip for c in gen.clients}
    assert set(observations) == generated_ips


def test_parser_counts_requests():
    gen, data = _generate()
    observations = parse_trace(data, pivot_unix=TRACE_EPOCH_UNIX)
    for client in gen.clients:
        assert observations[client.ip].total_requests == client.requests


def test_protocol_classification_matches_ground_truth():
    gen, data = _generate()
    observations = parse_trace(data, pivot_unix=TRACE_EPOCH_UNIX)
    for client in gen.clients:
        assert observations[client.ip].uses_sntp == client.uses_sntp


def test_owd_estimates_reflect_clock_state():
    gen, data = _generate()
    observations = parse_trace(data, pivot_unix=TRACE_EPOCH_UNIX)
    for client in gen.clients:
        owds = observations[client.ip].owd_estimates
        if client.synchronized:
            # OWD estimate = true OWD - clock offset; offset is ~20 ms.
            assert min(owds) > 0
            assert min(owds) == pytest.approx(
                client.min_owd - client.clock_offset, abs=0.2
            )
        else:
            # Offsets of 5..300 s make estimates absurd.
            assert min(owds) < 0 or min(owds) > 2.0


def test_client_count_scaling():
    server = server_by_id("MW2")  # 9.48M published clients
    options = GeneratorOptions(scale=1e-5, min_clients=10, max_clients=10_000)
    gen = TraceGenerator(server, seed=1, options=options)
    gen.generate()
    assert len(gen.clients) == pytest.approx(95, rel=0.1)


def test_isp_specific_server_mostly_ntp():
    gen, data = _generate(server_id="CI1", seed=2)
    sntp_clients = sum(c.uses_sntp for c in gen.clients)
    assert sntp_clients / len(gen.clients) < 0.3


def test_ipv6_only_on_supported_servers():
    gen_v4, _ = _generate(server_id="AG1", seed=1)  # v4-only server
    assert all(":" not in c.ip for c in gen_v4.clients)
    gen_v46, _ = _generate(server_id="SU1", seed=1)
    assert any(":" in c.ip for c in gen_v46.clients)
