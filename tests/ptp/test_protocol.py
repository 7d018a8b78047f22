"""PTP master/slave over simulated links."""

import numpy as np
import pytest

from repro.net.link import Link, LinkEffect
from repro.net.path import PathModel
from repro.ptp.protocol import PtpMaster, PtpSlave
from repro.simcore.simulator import Simulator
from tests.ntp.helpers import drifting_clock, perfect_clock


def _wire(sim, master_clock, slave_clock, fwd_delay=0.001, rev_delay=0.001,
          effect_hook=None):
    """Wire master and slave over symmetric-or-not links."""
    slave = PtpSlave(sim, slave_clock, send=lambda d: None)
    master = PtpMaster(sim, master_clock, send=lambda d: None,
                       sync_interval=1.0)
    down = Link(sim, PathModel(sim.rng.stream("down"), base_delay=fwd_delay,
                               queue_mean=0.0), receive=slave.on_datagram,
                effect_hook=effect_hook)
    up = Link(sim, PathModel(sim.rng.stream("up"), base_delay=rev_delay,
                             queue_mean=0.0), receive=master.on_datagram,
              effect_hook=effect_hook)
    master._send = down.send
    slave._send = up.send
    return master, slave


def test_exchange_recovers_slave_offset():
    sim = Simulator(seed=1)
    master_clock = perfect_clock(sim, stream="m")
    slave_clock = perfect_clock(sim, offset=0.025, stream="s")
    master, slave = _wire(sim, master_clock, slave_clock)
    master.start()
    sim.run_until(10.0)
    assert len(slave.samples) >= 8
    for sample in slave.samples:
        assert sample.offset == pytest.approx(0.025, abs=1e-6)
        assert sample.mean_path_delay == pytest.approx(0.001, abs=1e-6)


def test_zero_offset_zero_error():
    sim = Simulator(seed=1)
    master, slave = _wire(sim, perfect_clock(sim, stream="m"),
                          perfect_clock(sim, stream="s"))
    master.start()
    sim.run_until(5.0)
    assert all(abs(s.offset) < 1e-6 for s in slave.samples)


def test_asymmetry_biases_by_half_difference():
    sim = Simulator(seed=1)
    master, slave = _wire(
        sim, perfect_clock(sim, stream="m"), perfect_clock(sim, stream="s"),
        fwd_delay=0.010, rev_delay=0.002,
    )
    master.start()
    sim.run_until(5.0)
    # offset error = (fwd - rev)/2 = +4 ms.
    for sample in slave.samples:
        assert sample.offset == pytest.approx(0.004, abs=1e-6)
        assert sample.mean_path_delay == pytest.approx(0.006, abs=1e-6)


def test_lossy_channel_drops_exchanges():
    sim = Simulator(seed=2)
    rng = np.random.default_rng(0)

    def lossy():
        return LinkEffect(lost=rng.random() < 0.5)

    master, slave = _wire(sim, perfect_clock(sim, stream="m"),
                          perfect_clock(sim, stream="s"), effect_hook=lossy)
    master.start()
    sim.run_until(30.0)
    # Some exchanges fail (Sync, Follow_Up, Delay_Req or Resp lost) but
    # survivors are still well-formed.
    assert 0 < len(slave.samples) < master.syncs_sent


def test_wireless_style_jitter_degrades_ptp_like_sntp():
    """The point of including PTP: over an asymmetric-jitter hop its
    per-sample accuracy collapses to the same class as SNTP's."""
    sim = Simulator(seed=3)
    rng = np.random.default_rng(1)

    def bursty():
        extra = float(rng.exponential(0.050)) if rng.random() < 0.3 else 0.0
        return LinkEffect(extra_delay=extra)

    master, slave = _wire(sim, perfect_clock(sim, stream="m"),
                          perfect_clock(sim, stream="s"), effect_hook=bursty)
    master.start()
    sim.run_until(60.0)
    offsets = np.abs([s.offset for s in slave.samples])
    assert offsets.max() > 0.005  # tens of ms errors appear
    assert offsets.mean() > 0.001


def test_tracks_drifting_slave():
    sim = Simulator(seed=4)
    master, slave = _wire(sim, perfect_clock(sim, stream="m"),
                          drifting_clock(sim, skew_ppm=50.0, stream="s"))
    master.start()
    sim.run_until(100.0)
    first = slave.samples[0].offset
    last = slave.samples[-1].offset
    # Slave gains 50 us/s: offset grows by ~5 ms over 100 s.
    assert last - first == pytest.approx(50e-6 * (slave.samples[-1].t3 - slave.samples[0].t3), rel=0.05)


def test_delay_resp_for_other_slave_ignored():
    sim = Simulator(seed=5)
    slave = PtpSlave(sim, perfect_clock(sim, stream="s"), send=lambda d: None,
                     identity=b"SLAVE00001")
    from repro.net.message import Datagram
    from repro.ptp.messages import PtpHeader, PtpMessageType

    resp = PtpHeader(
        message_type=PtpMessageType.DELAY_RESP, sequence_id=1,
        timestamp=1.0, requesting_port_identity=b"OTHERSLAVE",
    )
    slave.on_datagram(Datagram(payload=resp.encode(), src="m", dst="s"))
    assert slave.samples == []


def test_master_stop():
    sim = Simulator(seed=6)
    master, slave = _wire(sim, perfect_clock(sim, stream="m"),
                          perfect_clock(sim, stream="s"))
    master.start()
    sim.run_until(5.0)
    master.stop()
    count = master.syncs_sent
    sim.run_until(50.0)
    assert master.syncs_sent == count


def test_invalid_sync_interval():
    sim = Simulator(seed=7)
    with pytest.raises(ValueError):
        PtpMaster(sim, perfect_clock(sim, stream="m"), send=lambda d: None,
                  sync_interval=0.0)
