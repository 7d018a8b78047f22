"""The public seams ``perfbench/ledger.py`` wraps by name.

The layer ledger replaces these attributes in place: it re-calls the
scheduling methods with ``label`` as the third positional argument,
unwraps classmethods from the class ``__dict__`` and wraps the model's
per-packet and per-read methods as plain functions.  A change to either
shape would otherwise pass every other tier-1 test and fail only in the
perfbench self-tests.
"""

import inspect

import numpy as np
import pytest

from repro.clock.simclock import SimClock
from repro.ntp.packet import NtpPacket
from repro.simcore.simulator import Simulator
from repro.wireless.channel import ChannelParams, WirelessChannel
from repro.wireless.crosstraffic import CrossTrafficGenerator
from repro.wireless.effects import ChannelEffects


@pytest.mark.parametrize("name", ["call_at", "call_after"])
def test_scheduling_takes_label_as_third_positional(name, sim):
    params = list(inspect.signature(getattr(Simulator, name)).parameters.values())
    assert [p.name for p in params[2:4]] == ["callback", "label"]
    label = params[3]
    assert label.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
    assert label.default == ""
    event = getattr(sim, name)(1.0, lambda: None, "seam")
    assert event.label == "seam"


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
