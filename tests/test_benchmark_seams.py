"""The public seams ``perfbench/ledger.py`` wraps by name.

The layer ledger replaces these attributes in place: it re-calls the
scheduling methods with ``label`` as the third positional argument
(and counts each call as one heap entry),
unwraps classmethods from the class ``__dict__`` and wraps the model's
per-packet and per-read methods as plain functions.  A change to either
shape would otherwise pass every other tier-1 test and fail only in the
perfbench self-tests.  The tuner's replay must likewise reach the core
functions through the module globals and class attributes the ledger
rebinds.
"""

import inspect

import numpy as np
import pytest

import repro.core.falsetickers as falsetickers
import repro.core.protocol as protocol
import repro.tuner.emulator as emulator
from repro.clock.simclock import SimClock
from repro.core.config import MntpConfig
from repro.core.filter import OffsetFilter
from repro.core.trend import TrendLine
from repro.ntp.packet import NtpPacket
from repro.simcore.simulator import Simulator
from repro.tuner.emulator import MntpEmulator
from repro.tuner.logger import TraceLogger
from repro.tuner.searcher import ParameterSearcher, SearchSpace
from repro.tuner.traces import OffsetTrace, TraceEntry
from repro.wireless.channel import ChannelParams, WirelessChannel
from repro.wireless.crosstraffic import CrossTrafficGenerator
from repro.wireless.effects import ChannelEffects
from tests.core.test_protocol import _build, _config


@pytest.mark.parametrize("name", ["call_at", "call_after"])
def test_scheduling_takes_label_as_third_positional(name, sim):
    params = list(inspect.signature(getattr(Simulator, name)).parameters.values())
    assert [p.name for p in params[2:4]] == ["callback", "label"]
    label = params[3]
    assert label.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
    assert label.default == ""
    event = getattr(sim, name)(1.0, lambda: None, "seam")
    assert event.label == "seam"


@pytest.mark.parametrize("name", ["call_at", "call_after"])
def test_each_scheduling_call_adds_one_heap_entry(name, sim):
    """``simcore.events_scheduled`` counts wrapped scheduling calls as
    heap entries, so a call must push exactly one."""
    schedule = getattr(sim, name)
    for count in range(1, 4):
        schedule(1.0, lambda: None, "seam")
        assert len(sim._heap) == count


@pytest.mark.parametrize("wrapped, other", [("call_at", "call_after"),
                                            ("call_after", "call_at")])
def test_scheduling_methods_do_not_call_each_other(monkeypatch, sim, wrapped, other):
    """The ledger wraps both methods; if one called the other, a single
    scheduled event would be counted twice."""
    calls = []
    original = Simulator.__dict__[wrapped]

    def counted(self, when, callback, label=""):
        calls.append(label)
        return original(self, when, callback, label)

    monkeypatch.setattr(Simulator, wrapped, counted)
    getattr(sim, other)(1.0, lambda: None, "other")
    assert calls == []
    getattr(sim, wrapped)(1.0, lambda: None, "wrapped")
    assert calls == ["wrapped"]
    assert len(sim._heap) == 2


@pytest.mark.parametrize("name", ["decode", "sntp_request"])
def test_packet_constructors_are_classmethods_in_dict(name):
    assert isinstance(NtpPacket.__dict__[name], classmethod)


def test_packet_encode_is_a_plain_method_in_dict():
    assert inspect.isfunction(NtpPacket.__dict__["encode"])


@pytest.mark.parametrize("cls, name", [
    (ChannelEffects, "sample"),
    (WirelessChannel, "read_hints"),
    (CrossTrafficGenerator, "occupancy"),
    (SimClock, "read"),
    (SimClock, "true_offset"),
    (ParameterSearcher, "evaluate"),
    (MntpEmulator, "run"),
    (TraceLogger, "run"),
    (OffsetFilter, "offer"),
    (TrendLine, "_fit"),
])
def test_ledger_wrapped_model_methods_are_plain_functions_in_dict(cls, name):
    assert inspect.isfunction(cls.__dict__[name])


def test_effects_sample_reads_hints_once_per_packet(monkeypatch):
    """The ledger counts ``wireless.hint_reads`` by wrapping the class
    attribute, so ``sample`` must look ``read_hints`` up on every packet
    rather than keep a method bound at construction."""
    now = [0.0]
    channel = WirelessChannel(ChannelParams(), np.random.default_rng(0),
                              now_fn=lambda: now[0])
    effects = ChannelEffects(channel, np.random.default_rng(1))
    reads = []
    original = WirelessChannel.read_hints

    def counted(self):
        reads.append(self)
        return original(self)

    monkeypatch.setattr(WirelessChannel, "read_hints", counted)
    for i in range(50):
        now[0] = i * 0.4
        effects.sample()
    assert reads == [channel] * 50


def _tuner_trace():
    trace = OffsetTrace()
    for i in range(120):
        hints = (dict(rssi_dbm=-85.0, noise_dbm=-60.0) if i % 7 == 3
                 else dict(rssi_dbm=-45.0, noise_dbm=-92.0))
        trace.append(TraceEntry(
            time=5.0 * i, offsets={"0.pool.ntp.org": 1e-4 * i,
                                   "1.pool.ntp.org": 1e-4 * i + 0.001},
            **hints,
        ))
    return trace


@pytest.mark.parametrize("name", ["reject_false_tickers", "favorable_snr_condition"])
def test_grid_replay_looks_core_functions_up_at_call_time(monkeypatch, name):
    """The ledger wraps module-level functions by rebinding every module
    global that holds them, so the replay must read that global on each
    call rather than keep a reference it took earlier."""
    calls = []
    original = getattr(emulator, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(emulator, name, counted)
    space = SearchSpace(warmup_periods=(60.0, 300.0), warmup_wait_times=(5.0, 10.0),
                        regular_wait_times=(30.0,), reset_periods=(600.0,))
    ParameterSearcher(_tuner_trace(), base_config=MntpConfig(), space=space).search()
    assert calls


def test_grid_replay_offers_through_the_class_attribute(monkeypatch):
    """``core.filter_offers`` counts calls of the wrapped class attribute."""
    offers = []
    original = OffsetFilter.offer

    def counted(self, time, offset):
        offers.append(time)
        return original(self, time, offset)

    monkeypatch.setattr(OffsetFilter, "offer", counted)
    config = MntpConfig(warmup_period=60.0, warmup_wait_time=5.0,
                        regular_wait_time=30.0, reset_period=600.0)
    MntpEmulator(_tuner_trace(), config).run()
    assert offers


def test_trend_is_dirty_from_add_to_the_next_fit():
    """``core.trend_fits`` counts the ``_fit`` calls made while ``_dirty``
    is set and ``len`` is at least 2: one per change of the points."""
    line = TrendLine()
    line.add(0.0, 0.0)
    line.add(1.0, 1.0)
    assert line._dirty and len(line) == 2
    line._fit()
    assert not line._dirty
    line.residual_stats()
    assert not line._dirty
    line.add(2.0, 1.0)
    assert line._dirty
    line.clear()
    assert line._dirty and len(line) == 0


def test_reject_false_tickers_is_module_level():
    """The ledger wraps it by rebinding every module global that holds it."""
    fn = falsetickers.reject_false_tickers
    assert inspect.isfunction(fn) and fn.__qualname__ == "reject_false_tickers"
    assert protocol.reject_false_tickers is fn
    assert emulator.reject_false_tickers is fn


def test_mntp_warmup_looks_reject_false_tickers_up_at_call_time(monkeypatch, sim):
    """``Mntp``'s warm-up reads the module global on each vote, like the
    grid replay (``test_grid_replay_looks_core_functions_up_at_call_time``)."""
    calls = []
    original = protocol.reject_false_tickers

    def counted(offsets):
        calls.append(offsets)
        return original(offsets)

    monkeypatch.setattr(protocol, "reject_false_tickers", counted)
    _, _, mntp = _build(sim, _config())
    mntp.start()
    sim.run_until(60.0)
    assert calls
