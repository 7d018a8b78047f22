"""Import footprint: a process imports only the code its job runs.

Every scenario run, bench session and CLI call is a fresh interpreter,
so each module a package ``__init__`` drags in is paid in set-up time.
These checks run the imports in a clean subprocess and assert that the
heavy subsystems a job does not use stay out of ``sys.modules``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Subsystems a simulated scenario run never executes.
NOT_IN_A_SCENARIO_RUN = (
    "repro.logs",
    "repro.pcaplib",
    "repro.cellular",
    "repro.tuner",
    "repro.testbed.matrix",
    "repro.obs.explain",
    "repro.obs.causal",
)

#: Model code: the simulator and everything a protocol run drives.
MODEL_CODE = (
    "repro.simcore",
    "repro.core.protocol",
    "repro.wireless",
    "repro.net",
    "repro.ntp",
)

#: Every ``repro`` subpackage and module but the codec.
NOT_THE_CODEC = tuple(sorted(
    f"repro.{path.stem}" for path in (SRC / "repro").iterdir()
    if not path.stem.startswith("_") and path.stem != "codec"
))

CASES = {
    "codec": (("repro.codec",), NOT_THE_CODEC),
    "scenario": (
        ("repro.testbed.specs", "repro.testbed.experiment"),
        NOT_IN_A_SCENARIO_RUN,
    ),
    "core_config": (
        ("repro.core.config",),
        MODEL_CODE + NOT_IN_A_SCENARIO_RUN,
    ),
    "tuner_logger": (
        ("repro.tuner.logger",),
        (
            "repro.logs",
            "repro.pcaplib",
            "repro.cellular",
            "repro.tuner.emulator",
            "repro.tuner.searcher",
            "repro.tuner.autotune",
        ),
    ),
    "wireless_hints": (
        ("repro.wireless.hints",),
        ("repro.simcore", "repro.net", "repro.obs", "repro.wireless.channel",
         "repro.wireless.crosstraffic", "repro.wireless.effects",
         "repro.wireless.wap"),
    ),
    "tuner_emulator": (
        ("repro.tuner.emulator",),
        ("repro.simcore", "repro.core.protocol", "repro.wireless.channel",
         "repro.net", "repro.testbed", "repro.logs", "repro.cellular",
         "repro.metrics.allan", "repro.metrics.distributions"),
    ),
    "persistence": (
        ("repro.testbed.persistence",),
        ("repro.obs.explain", "repro.obs.causal"),
    ),
    "cli": (
        ("repro.cli",),
        NOT_IN_A_SCENARIO_RUN
        + MODEL_CODE
        + ("repro.analysis", "repro.testbed.persistence", "repro.testbed.specs"),
    ),
}


def _modules_after_import(modules):
    """``sys.modules`` keys of a fresh interpreter after importing ``modules``."""
    code = (
        "import importlib, json, sys\n"
        f"for name in {list(modules)!r}:\n"
        "    importlib.import_module(name)\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(proc.stdout)


@pytest.mark.parametrize("case", sorted(CASES))
def test_import_loads_no_unused_subsystem(case):
    imports, forbidden = CASES[case]
    loaded = _modules_after_import(imports)
    assert set(imports) <= set(loaded)
    leaked = [
        name for name in loaded
        if any(name == f or name.startswith(f + ".") for f in forbidden)
    ]
    assert not leaked, f"importing {imports} also loaded {leaked}"
