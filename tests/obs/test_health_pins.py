"""Byte pins of the health judge's report.

Each scenario runs at seed 7 under its own guarantees.  The pins are
the sha256 of the canonical JSON (``sort_keys=True``) of the
``mntp-health-report-v1`` report.  A change to what the judge reads,
its evaluation order or the state machine moves them; such a change
must update them and say why.  They last moved when the exchange-rate
signal was retired: each new report is the old one without
``spec.exchange_rate_{warn,violate}_per_s`` and
``worst.min_exchange_rate_per_s``.
"""

import hashlib
import json

import pytest

from repro.obs.health import judge_health
from repro.testbed.specs import load_scenario


def _sha256(document):
    return hashlib.sha256(json.dumps(document, sort_keys=True).encode()).hexdigest()


def _judged(name):
    """The report of one scenario at seed 7 under its guarantees."""
    spec = load_scenario(name)
    return judge_health(spec.build_runner(seed=7).run(), spec.guarantees)


#: Report sha256 per scenario.
_HEALTH_PINS = {
    "chaos_full":
        "18811ab0f02588679b3e0a4c2ae6d5e27804a08eab000a802a7ea3f0cb499024",
    "chaos_smoke":
        "b2430f89325f7b8a524fbabf175d966dc79072e76475c196e4131dbfad260864",
    "mntp_wireless_corrected":
        "69fcc4adc129a8f7d3e7acf94ef37e17aa626d1a2ff110de3b9453dad6f18d26",
    "wired_corrected":
        "c2fba53375c6f9b040264b265dc6f9271953de0225049c9cdf04a2a471d9d947",
}


@pytest.mark.parametrize("name", sorted(_HEALTH_PINS))
def test_health_report_pinned(name):
    assert _sha256(_judged(name)) == _HEALTH_PINS[name]
