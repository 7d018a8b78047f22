"""RngRegistry stream independence and reproducibility."""

import pytest

from repro.simcore.random import RngRegistry


def test_same_name_same_stream_object():
    reg = RngRegistry(1)
    assert reg.stream("a") is reg.stream("a")


def test_streams_reproducible_across_registries():
    a = RngRegistry(5).stream("channel").normal(size=10)
    b = RngRegistry(5).stream("channel").normal(size=10)
    assert (a == b).all()


def test_different_names_differ():
    reg = RngRegistry(5)
    a = reg.stream("a").normal(size=10)
    b = reg.stream("b").normal(size=10)
    assert not (a == b).all()


def test_different_seeds_differ():
    a = RngRegistry(1).stream("x").normal(size=10)
    b = RngRegistry(2).stream("x").normal(size=10)
    assert not (a == b).all()


def test_isolation_between_streams():
    """Draws on one stream must not perturb another."""
    reg1 = RngRegistry(9)
    reg1.stream("noise").normal(size=1000)  # heavy use of one stream
    after_heavy = reg1.stream("signal").normal(size=5)

    reg2 = RngRegistry(9)
    fresh = reg2.stream("signal").normal(size=5)
    assert (after_heavy == fresh).all()


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        RngRegistry(-1)

