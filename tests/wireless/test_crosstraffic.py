"""Cross-traffic generator alternation and control."""

import dataclasses

import pytest

from repro.simcore.simulator import Simulator
from repro.wireless.crosstraffic import CrossTrafficGenerator, CrossTrafficParams


def test_downloads_start_and_stop():
    sim = Simulator(seed=1)
    gen = CrossTrafficGenerator(
        sim, CrossTrafficParams(mean_gap_s=10.0, mean_duration_s=5.0)
    )
    gen.start()
    sim.run_until(600.0)
    assert gen.downloads_started >= 10
    starts = sim.trace.select(component="crosstraffic", kind="download_start")
    ends = sim.trace.select(component="crosstraffic", kind="download_end")
    assert abs(len(starts) - len(ends)) <= 1


def test_occupancy_levels():
    sim = Simulator(seed=1)
    params = CrossTrafficParams(occupancy_during_download=0.8, occupancy_idle=0.1)
    gen = CrossTrafficGenerator(sim, params)
    assert gen.occupancy() == 0.1
    gen.downloading = True
    assert gen.occupancy() == 0.8


def test_frequency_scale_shortens_gaps():
    def count(scale):
        sim = Simulator(seed=2)
        gen = CrossTrafficGenerator(
            sim, CrossTrafficParams(mean_gap_s=50.0, mean_duration_s=1.0)
        )
        gen.set_frequency_scale(scale)
        gen.start()
        sim.run_until(3600.0)
        return gen.downloads_started

    assert count(4.0) > count(0.5) * 2


def test_frequency_scale_clamped():
    sim = Simulator(seed=1)
    gen = CrossTrafficGenerator(sim)
    gen.set_frequency_scale(0.0)
    assert gen.frequency_scale > 0.0


def test_stop_ceases_new_downloads():
    sim = Simulator(seed=3)
    gen = CrossTrafficGenerator(
        sim, CrossTrafficParams(mean_gap_s=5.0, mean_duration_s=1.0)
    )
    gen.start()
    sim.run_until(100.0)
    started = gen.downloads_started
    gen.stop()
    sim.run_until(1000.0)
    assert gen.downloads_started == started


def test_start_idempotent():
    sim = Simulator(seed=4)
    gen = CrossTrafficGenerator(sim)
    gen.start()
    gen.start()
    sim.run_until(1.0)  # must not crash or double-schedule wildly


def test_cross_traffic_params_are_frozen():
    """The default ``CrossTrafficParams()`` is shared by every generator."""
    gen = CrossTrafficGenerator(Simulator(seed=1))
    with pytest.raises(dataclasses.FrozenInstanceError):
        gen.params.mean_gap_s = 1.0
