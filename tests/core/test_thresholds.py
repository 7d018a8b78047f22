"""The favorable-SNR gate.

Every case reads the gate twice: with a :class:`WirelessHints` and with
a logged :class:`TraceEntry` holding the same RSSI and noise (the
tuner's replay gates on the entry itself).  Both must get one verdict.
"""

import pytest

from repro.core.config import HintThresholds
from repro.core.thresholds import failing_conditions, favorable_snr_condition
from repro.tuner.traces import TraceEntry
from repro.wireless.hints import WirelessHints


T = HintThresholds()


def _readings(rssi, noise):
    return (WirelessHints(rssi_dbm=rssi, noise_dbm=noise),
            TraceEntry(time=0.0, rssi_dbm=rssi, noise_dbm=noise))


def _favorable(rssi, noise, thresholds=T):
    """The gate's verdict, which must not depend on the reading's type."""
    hints, entry = _readings(rssi, noise)
    verdict = favorable_snr_condition(hints, thresholds)
    assert favorable_snr_condition(entry, thresholds) is verdict
    return verdict


def _failing(rssi, noise, thresholds=T):
    hints, entry = _readings(rssi, noise)
    failures = failing_conditions(hints, thresholds)
    assert failing_conditions(entry, thresholds) == failures
    return failures


def test_clearly_good_passes():
    assert _favorable(-50.0, -92.0)


def test_low_rssi_fails():
    assert not _favorable(-80.0, -92.0)
    assert "rssi" in _failing(-80.0, -92.0)


def test_high_noise_fails():
    assert not _favorable(-40.0, -65.0)
    assert "noise" in _failing(-40.0, -65.0)


def test_thin_margin_fails():
    # RSSI and noise individually fine but margin < 20 dB.
    assert not _favorable(-72.0, -88.0)  # margin 16
    assert _failing(-72.0, -88.0) == ["snr_margin"]


def test_boundaries_match_paper_wording():
    # "RSSI should be greater than -75": exactly -75 fails.
    assert not _favorable(-75.0, -100.0)
    assert _failing(-75.0, -100.0) == ["rssi"]
    # "noise lesser than -70": exactly -70 fails.
    assert not _favorable(-40.0, -70.0)
    assert _failing(-40.0, -70.0) == ["noise"]
    # "SNR margin greater than or equal to 20": exactly 20 passes.
    assert _favorable(-60.0, -80.0)
    assert _failing(-60.0, -80.0) == []


@pytest.mark.parametrize("rssi, noise, favorable", [
    (-60.0, -80.0, True),     # exactly the minimum
    (-60.1, -80.1, False),    # rounds to just under 20 dB
    (-59.9, -79.9, True),     # rounds to just over 20 dB
    (-55.3, -75.3, True),     # rounds to exactly 20 dB
])
def test_margin_at_the_minimum_is_rssi_minus_noise(rssi, noise, favorable):
    """The margin is the float ``rssi - noise`` for both reading types,
    so a margin that rounds either side of the minimum gets one verdict."""
    hints, _ = _readings(rssi, noise)
    assert (hints.snr_margin_db >= T.min_snr_margin_db) is favorable
    assert _favorable(rssi, noise) is favorable


def test_each_threshold_at_its_own_boundary():
    thresholds = HintThresholds(min_rssi_dbm=-70.0, max_noise_dbm=-85.0,
                                min_snr_margin_db=25.0)
    assert not _favorable(-70.0, -100.0, thresholds)    # RSSI at its floor
    assert _favorable(-69.5, -100.0, thresholds)
    assert not _favorable(-50.0, -85.0, thresholds)     # noise at its ceiling
    assert _favorable(-50.0, -85.5, thresholds)
    assert _favorable(-61.0, -86.0, thresholds)         # margin exactly 25
    assert not _favorable(-61.5, -86.0, thresholds)
    assert _failing(-61.5, -86.0, thresholds) == ["snr_margin"]


def test_multiple_failures_listed():
    failures = _failing(-90.0, -60.0)
    assert set(failures) == {"rssi", "noise", "snr_margin"}


def test_no_failures_when_favorable():
    assert _failing(-50.0, -92.0) == []
