"""The ``lint`` command implementation.

Shared between ``repro-mntp lint`` (a subcommand of the main CLI) and
``python -m repro.analysis`` (standalone), so both accept identical
options and return identical exit codes:

* 0 — no findings left after inline ``# repro: noqa`` suppressions,
* 1 — at least one finding or an unreadable file,
* 2 — usage errors (unknown options or rule ids, an empty
  ``--select``/``--ignore`` list, missing paths).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis.engine import Engine
from repro.analysis.reporting import render_human, render_json


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the lint options to ``parser`` (shared by both entry points)."""
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to analyse (default: src)",
    )
    parser.add_argument(
        "--format", choices=["human", "json"], default="human",
        dest="output_format", help="output format",
    )
    parser.add_argument(
        "--select", metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--ignore", metavar="RULES",
        help="comma-separated rule ids to skip",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list every shipped rule and exit",
    )
    parser.add_argument(
        "--explain", metavar="RULE",
        help="print one rule's summary, rationale, example and fix "
             "guidance, then exit",
    )


def run_lint(args: argparse.Namespace) -> int:
    """Execute a lint run from parsed arguments; returns the exit code."""
    if args.explain:
        return _explain(args.explain)

    try:
        engine = Engine(
            select=_split(args.select, "--select"),
            ignore=_split(args.ignore, "--ignore"),
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.list_rules:
        from repro.analysis.rules import all_project_rules, all_rules

        registry = {**all_rules(), **all_project_rules()}
        for rule_id, rule_cls in sorted(registry.items()):
            print(f"{rule_id}  {rule_cls.summary}")
        return 0

    paths = [Path(p) for p in args.paths]
    missing = [p for p in paths if not p.exists()]
    if missing:
        for p in missing:
            print(f"error: no such path: {p}", file=sys.stderr)
        return 2

    result = engine.check_paths(paths)
    if args.output_format == "json":
        print(render_json(result))
    else:
        print(render_human(result))
    return 1 if (result.findings or result.errors) else 0


def main(argv: Optional[List[str]] = None) -> int:
    """Standalone entry point for ``python -m repro.analysis``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Domain-aware static analysis for the MNTP reproduction: "
        "simulation determinism, time-unit safety, generic correctness.",
    )
    add_lint_arguments(parser)
    return run_lint(parser.parse_args(argv))


def _split(value: Optional[str], option: str) -> Optional[List[str]]:
    """Rule ids from a comma-separated option; an empty list is an error."""
    if value is None:
        return None
    ids = [part.strip() for part in value.split(",") if part.strip()]
    if not ids:
        raise ValueError(f"{option} names no rule ids")
    return ids


def _explain(rule_id: str) -> int:
    """Print one rule's documentation; exit 2 with a hint if unknown."""
    import difflib
    import textwrap

    from repro.analysis.rules import all_project_rules, all_rules

    registry = {**all_rules(), **all_project_rules()}
    rule_cls = registry.get(rule_id.upper())
    if rule_cls is None:
        close = difflib.get_close_matches(
            rule_id.upper(), sorted(registry), n=1
        )
        hint = f"; did you mean {close[0]}?" if close else ""
        print(f"error: unknown rule id '{rule_id}'{hint}", file=sys.stderr)
        return 2
    print(f"{rule_cls.rule_id} — {rule_cls.summary}")
    sections = (
        ("rationale", rule_cls.rationale),
        ("example", rule_cls.example),
        ("fix", rule_cls.fix_hint),
    )
    for title, body in sections:
        if body:
            print(f"\n{title}:")
            print(textwrap.indent(textwrap.dedent(body).strip("\n"), "  "))
    return 0
