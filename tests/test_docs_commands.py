"""The documented commands exist.

Every ``repro-mntp <command>`` in README.md, DESIGN.md, EXPERIMENTS.md
and docs/*.md, and the subcommand list in the verify skill, must name a subcommand the parser
has, and every ``--option`` on that command line must be one of that
subcommand's options.  A deleted or renamed command or option fails
here instead of in a reader's shell.
"""

import argparse
import re
from pathlib import Path

import pytest

from repro.analysis.cli import add_lint_arguments
from repro.cli import _build_parser

ROOT = Path(__file__).resolve().parents[1]
DOCS = [ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md",
        *sorted((ROOT / "docs").glob("*.md"))]
SKILL = ROOT / ".claude" / "skills" / "verify" / "SKILL.md"

# A command line starts a line or a code span; ``--seed N`` may come
# first.  Its arguments run to the end of the code span, a shell comment
# or the end of the line.
COMMAND = re.compile(
    r"(?:^|`)repro-mntp(?:\s+--seed\s+\S+)?\s+([a-z][\w-]*)([^`#\n]*)", re.M
)
OPTION = re.compile(r"(?<![\w-])--[a-z][\w-]*")


def _subparsers():
    """The ``repro-mntp`` subparsers by name, ``lint``'s options added."""
    parser, lint = _build_parser()
    add_lint_arguments(lint)
    (sub,) = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def _subcommands():
    """The ``repro-mntp`` parser's subcommand names."""
    return set(_subparsers())


@pytest.mark.parametrize("path", DOCS, ids=lambda p: p.name)
def test_documented_commands_exist(path):
    live = _subcommands()
    text = path.read_text()
    stale = [
        f"{path.name}:{text.count(chr(10), 0, m.start()) + 1}: {m.group(1)}"
        for m in COMMAND.finditer(text) if m.group(1) not in live
    ]
    assert not stale, stale


@pytest.mark.parametrize("path", DOCS, ids=lambda p: p.name)
def test_documented_options_exist(path):
    options = {
        name: {o for action in sub._actions for o in action.option_strings}
        for name, sub in _subparsers().items()
    }
    text = path.read_text()
    stale = [
        f"{path.name}:{text.count(chr(10), 0, m.start()) + 1}: "
        f"{m.group(1)} {option}"
        for m in COMMAND.finditer(text) if m.group(1) in options
        for option in OPTION.findall(m.group(2))
        if option not in options[m.group(1)]
    ]
    assert not stale, stale


def test_the_scan_finds_options():
    # The scan reads a command's options up to a comment or code span end.
    line = "`repro-mntp run X --save a.json` then --json  # --watch"
    (m,) = COMMAND.finditer(line)
    assert OPTION.findall(m.group(2)) == ["--save"]
    # lint's options are added lazily; the scan must see them.
    assert "--list-rules" in {
        o for a in _subparsers()["lint"]._actions for o in a.option_strings
    }


def test_the_scan_finds_commands():
    assert any(COMMAND.search(path.read_text()) for path in DOCS)


def test_verify_skill_lists_every_subcommand():
    listing = re.search(r"Subcommands:((?:\s*`[\w-]+`,?)+)", SKILL.read_text())
    assert listing is not None
    assert set(re.findall(r"`([\w-]+)`", listing.group(1))) == _subcommands()
