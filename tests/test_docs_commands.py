"""The documented commands exist.

Every ``repro-mntp <command>`` in README.md, DESIGN.md, EXPERIMENTS.md
and docs/*.md, and the subcommand list in the verify skill, must name a subcommand the parser
has.  A deleted or renamed command fails here instead of in a reader's
shell.
"""

import argparse
import re
from pathlib import Path

import pytest

from repro.cli import _build_parser

ROOT = Path(__file__).resolve().parents[1]
DOCS = [ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md",
        *sorted((ROOT / "docs").glob("*.md"))]
SKILL = ROOT / ".claude" / "skills" / "verify" / "SKILL.md"

# A command line starts a line or a code span; ``--seed N`` may come first.
COMMAND = re.compile(r"(?:^|`)repro-mntp(?:\s+--seed\s+\S+)?\s+([a-z][\w-]*)", re.M)


def _subcommands():
    """The ``repro-mntp`` parser's subcommand names."""
    parser, _lint = _build_parser()
    (sub,) = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    return set(sub.choices)


@pytest.mark.parametrize("path", DOCS, ids=lambda p: p.name)
def test_documented_commands_exist(path):
    live = _subcommands()
    text = path.read_text()
    stale = [
        f"{path.name}:{text.count(chr(10), 0, m.start()) + 1}: {m.group(1)}"
        for m in COMMAND.finditer(text) if m.group(1) not in live
    ]
    assert not stale, stale


def test_the_scan_finds_commands():
    assert any(COMMAND.search(path.read_text()) for path in DOCS)


def test_verify_skill_lists_every_subcommand():
    listing = re.search(r"Subcommands:((?:\s*`[\w-]+`,?)+)", SKILL.read_text())
    assert listing is not None
    assert set(re.findall(r"`([\w-]+)`", listing.group(1))) == _subcommands()
