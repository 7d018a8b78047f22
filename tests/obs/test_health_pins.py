"""Byte pins of the health judge's report and evaluation rows.

Each scenario runs at seed 7 under its own guarantees.  The pins are
the sha256 of the canonical JSON (``sort_keys=True``) of the
``mntp-health-report-v1`` report and of the list of periodic
evaluation rows.  A change to the judge's feed, its event order or the
state machine moves them; such a change must update them and say why.
"""

import hashlib
import json

import pytest

from repro.obs.health import judge_health
from repro.testbed.specs import load_scenario


def _sha256(document):
    return hashlib.sha256(json.dumps(document, sort_keys=True).encode()).hexdigest()


def _judged(name):
    """(report, rows) of one scenario at seed 7 under its guarantees."""
    spec = load_scenario(name)
    return judge_health(spec.build_runner(seed=7).run(), spec.guarantees)


#: (report sha256, rows sha256) per scenario.
_HEALTH_PINS = {
    "chaos_full": (
        "50619277c2c6f28e455c8d9ef7172a7ec4e792b6c504b76ec3113cb2a98d956d",
        "db7f251729006d677594f3f48d54184b299b29e2c690d019ac8b12a84100da03",
    ),
    "chaos_smoke": (
        "2e93bf8bff97a61ed4a470349ac14ced43b5963eff133b28cd2c6babb442bf21",
        "a3a8362fcbd47e599475e821ccccb4dbe2150039e4e073fde998d3772afd9254",
    ),
    "mntp_wireless_corrected": (
        "681ecc665d2e5aa3b6ce7017994e1f3091a71f8cf442342a39a094a16f4c6c3d",
        "ec659a8d6bd7281dd39d11b30d730ab2580988600a04fcb845e23caa76e0e785",
    ),
    "wired_corrected": (
        "0f88be8e6cac4906a07b663788ea7e33ddc1261db2a49df48009fa532d07ad8d",
        "fd3163577d03a5e366b939988483f23c15e26888fe621b670feb3530495fd38e",
    ),
}


@pytest.mark.parametrize("name", sorted(_HEALTH_PINS))
def test_health_report_and_rows_pinned(name):
    report, rows = _judged(name)
    assert (_sha256(report), _sha256(rows)) == _HEALTH_PINS[name]
