"""Cross-traffic generator.

Reproduces the monitor node's first degradation strategy: occupying the
WAP's uplink "intermittently by downloading a large file at random
intervals".  While a download is active the channel occupancy rises,
which the effects model translates into queueing delay and loss for
everything else sharing the hop.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.simcore.random import block_reader
from repro.simcore.simulator import Simulator


@dataclass(frozen=True)
class CrossTrafficParams:
    """Download workload shape.

    Attributes:
        mean_gap_s: Mean idle gap between downloads (exponential).
        mean_duration_s: Mean download duration (exponential).
        occupancy_during_download: Channel utilisation while downloading,
            in [0, 1).
        occupancy_idle: Background utilisation with no download.
    """

    mean_gap_s: float = 90.0
    mean_duration_s: float = 30.0
    occupancy_during_download: float = 0.80
    occupancy_idle: float = 0.10

    def __post_init__(self) -> None:
        # Scales of the standard-form draws in ``CrossTrafficGenerator``.
        for name in ("mean_gap_s", "mean_duration_s"):
            value = getattr(self, name)
            if not value >= 0.0:
                raise ValueError(f"{name} must be non-negative, got {value!r}")


class CrossTrafficGenerator:
    """Alternating idle/download process with tunable frequency.

    The monitor node tunes ``frequency_scale`` at runtime: >1 shortens
    gaps (more hostile channel), <1 lengthens them.
    """

    def __init__(
        self,
        sim: Simulator,
        params: CrossTrafficParams = CrossTrafficParams(),
        stream_name: str = "crosstraffic",
    ) -> None:
        self._sim = sim
        self.params = params
        # Gaps and durations are the stream's only draws.
        self._standard_exponential = block_reader(
            sim.rng.stream(stream_name).standard_exponential
        )
        self.frequency_scale = 1.0
        self.downloading = False
        self._running = False
        self.downloads_started = 0

    def start(self) -> None:
        """Begin the idle/download alternation."""
        if self._running:
            return
        self._running = True
        self._schedule_next_download()

    def stop(self) -> None:
        """Cease starting new downloads (an active one finishes)."""
        self._running = False

    def occupancy(self) -> float:
        """Current channel utilisation contributed by cross-traffic."""
        if self.downloading:
            return self.params.occupancy_during_download
        return self.params.occupancy_idle

    def set_frequency_scale(self, scale: float) -> None:
        """Monitor-node control: scale download frequency (clamped > 0)."""
        self.frequency_scale = max(0.05, float(scale))

    # -- internal scheduling -------------------------------------------------

    def _schedule_next_download(self) -> None:
        if not self._running:
            return
        scale = self.params.mean_gap_s / self.frequency_scale
        gap = scale * self._standard_exponential()
        self._sim.call_after(gap, self._begin_download, label="xtraffic:begin")

    def _begin_download(self) -> None:
        if not self._running:
            return
        self.downloading = True
        self.downloads_started += 1
        self._sim.telemetry.emit(self._sim.now, "crosstraffic", "download_start")
        duration = self.params.mean_duration_s * self._standard_exponential()
        self._sim.call_after(duration, self._end_download, label="xtraffic:end")

    def _end_download(self) -> None:
        self.downloading = False
        self._sim.telemetry.emit(self._sim.now, "crosstraffic", "download_end")
        self._schedule_next_download()
