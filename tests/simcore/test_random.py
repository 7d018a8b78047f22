"""RngRegistry stream independence and reproducibility."""

import numpy as np
import pytest

from repro.simcore.random import BLOCK_SIZE, RngRegistry, block_reader


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



_FILLS = {
    "standard_normal": (lambda g: g.standard_normal, lambda g: g.standard_normal()),
    "standard_exponential": (lambda g: g.standard_exponential,
                             lambda g: g.standard_exponential()),
    "random": (lambda g: g.random, lambda g: g.random()),
    "standard_gamma": (lambda g: lambda n: g.standard_gamma(0.7, n),
                       lambda g: g.standard_gamma(0.7)),
    "integers": (lambda g: lambda n: g.integers(0, 7, n), lambda g: g.integers(0, 7)),
}


@pytest.mark.parametrize("name", sorted(_FILLS))
def test_block_reader_hands_out_the_scalar_sequence(name):
    fill, scalar = _FILLS[name]
    read = block_reader(fill(np.random.default_rng(4)))
    reference = np.random.default_rng(4)
    count = 3 * BLOCK_SIZE + 5
    got = [read() for _ in range(count)]
    assert got == [scalar(reference) for _ in range(count)]
    assert {type(value) for value in got} == {int if name == "integers" else float}


def test_block_reader_fetches_whole_blocks_when_first_needed():
    rng = np.random.default_rng(4)
    untouched = rng.bit_generator.state
    read = block_reader(rng.standard_normal)
    assert rng.bit_generator.state == untouched
    blocks = np.random.default_rng(4)
    for _ in range(BLOCK_SIZE + 1):
        read()
    blocks.standard_normal(BLOCK_SIZE)
    blocks.standard_normal(BLOCK_SIZE)
    assert rng.bit_generator.state == blocks.bit_generator.state
