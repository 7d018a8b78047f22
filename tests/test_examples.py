"""The API examples run end to end.

``examples/`` holds only the two scripts that show the library's API
(the paper's numbers are the benches under ``benchmarks/``).  Each runs
in a fresh interpreter with ``PYTHONPATH=src``, as its usage line says,
and must exit 0 and print its headline line.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script,headline", [
    ("quickstart.py", r"MNTP rejected \d+ outlier offsets and is [\d.]+x more accurate\."),
    ("custom_protocol_lab.py", r"accepted offsets +: \d+"),
])
def test_example_runs_and_prints_its_headline(script, headline):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "examples" / script)],
        capture_output=True, text=True, env=env, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    assert re.search(headline, proc.stdout), proc.stdout
