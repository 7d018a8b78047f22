"""Shared fixtures."""

import numpy as np
import pytest

from repro.simcore.simulator import Simulator


@pytest.fixture
def sim() -> Simulator:
    """A fresh simulator with a fixed seed."""
    return Simulator(seed=42)


@pytest.fixture
def rng() -> np.random.Generator:
    """A standalone seeded generator for non-simulator components."""
    return np.random.default_rng(42)
