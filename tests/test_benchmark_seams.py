"""The public seams ``perfbench/ledger.py`` wraps by name.

The layer ledger replaces these attributes in place: it re-calls the
scheduling methods with ``label`` as the third positional argument and
unwraps classmethods from the class ``__dict__``.  A change to either
shape would otherwise pass every other tier-1 test and fail only in the
perfbench self-tests.
"""

import inspect

import pytest

from repro.ntp.packet import NtpPacket
from repro.simcore.simulator import Simulator


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
