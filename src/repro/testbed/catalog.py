"""The checked-in scenario directory, listed without loading the model.

Scenario names are the stems of the ``.json`` files under the repo's
``scenarios/`` directory.  Listing them needs only :mod:`os`, so a
process that merely names scenarios (the CLI building its ``run``
choices) does not import the simulator; :mod:`repro.testbed.specs`
parses and runs them.
"""

from __future__ import annotations

import os
from typing import List

#: The repo's ``scenarios/`` directory: one spec file per named scenario.
SCENARIO_DIR = os.path.normpath(os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "..", "..",
    "scenarios",
))


def iter_spec_files(directory: str) -> List[str]:
    """The ``.json`` files of a spec directory, sorted by filename."""
    try:
        names = sorted(os.listdir(directory))
    except OSError as exc:
        raise ValueError(f"{directory}: {exc}") from exc
    return [
        os.path.join(directory, name)
        for name in names
        if name.endswith(".json")
    ]


def scenario_names() -> List[str]:
    """Sorted names of the checked-in scenarios (spec filename stems)."""
    return [
        os.path.basename(path)[: -len(".json")]
        for path in iter_spec_files(SCENARIO_DIR)
    ]
