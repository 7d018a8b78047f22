"""The ``lint`` command implementation.

Shared between ``repro-mntp lint`` (a subcommand of the main CLI) and
``python -m repro.analysis`` (standalone), so both accept identical
options and return identical exit codes:

* 0 — no new findings (baselined findings do not fail the run),
* 1 — at least one new finding or an unreadable file,
* 2 — usage errors (unknown rule ids, bad baseline file, refused
  flag combinations such as ``--update-baseline`` with ``--select``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis.baseline import (
    DEFAULT_BASELINE_NAME,
    load_baseline,
    match_baseline,
    write_baseline,
)
from repro.analysis.cache import DEFAULT_CACHE_NAME, LintCache, config_key
from repro.analysis.engine import Engine
from repro.analysis.fix import apply_fixes, plan_fixes
from repro.analysis.reporting import render_human, render_json, render_sarif


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the lint options to ``parser`` (shared by both entry points)."""
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to analyse (default: src)",
    )
    parser.add_argument(
        "--format", choices=["human", "json", "sarif"], default="human",
        dest="output_format", help="output format",
    )
    parser.add_argument(
        "--baseline", metavar="PATH", default=DEFAULT_BASELINE_NAME,
        help=f"baseline file (default: {DEFAULT_BASELINE_NAME}; "
             "a missing file means an empty baseline)",
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore the baseline file entirely",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="write current findings to the baseline file and exit 0",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline from a full-rule run; refuses to run "
             "with --select/--ignore (a partial run would silently drop "
             "entries for the disabled rules)",
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
        "--fix", action="store_true",
        help="auto-fix mechanically repairable findings (unused imports, "
             "missing __all__, unambiguous unit-suffix renames), then "
             "re-lint",
    )
    parser.add_argument(
        "--dry-run", action="store_true",
        help="with --fix: print the unified diff, write nothing",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for the per-file phase (default 1: "
             "in-process; output is identical either way)",
    )
    parser.add_argument(
        "--stats", action="store_true",
        help="print per-phase timing and cache hit rate after the report",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help=f"disable the incremental cache ({DEFAULT_CACHE_NAME})",
    )
    parser.add_argument(
        "--cache-path", metavar="PATH", default=DEFAULT_CACHE_NAME,
        help=argparse.SUPPRESS,  # for tests; the default name is the contract
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list every shipped rule and exit",
    )
    parser.add_argument(
        "--explain", metavar="RULE",
        help="print the catalogue entry (summary, rationale, example, "
             "fix guidance) for one rule and exit",
    )
    parser.add_argument(
        "--changed", action="store_true",
        help="only analyse files changed vs the merge-base with "
             "origin/main (falls back to a full run outside a git repo)",
    )


def run_lint(args: argparse.Namespace) -> int:
    """Execute a lint run from parsed arguments; returns the exit code."""
    if args.update_baseline and (args.select or args.ignore):
        print(
            "error: refusing to run --update-baseline with --select/"
            "--ignore: a partial-rule run would write a partial baseline",
            file=sys.stderr,
        )
        return 2
    if args.dry_run and not args.fix:
        print("error: --dry-run requires --fix", file=sys.stderr)
        return 2
    if args.jobs < 1:
        print("error: --jobs must be at least 1", file=sys.stderr)
        return 2
    if args.changed and (args.write_baseline or args.update_baseline):
        print(
            "error: refusing to run --changed with --write-baseline/"
            "--update-baseline: a partial-tree run would write a "
            "partial baseline",
            file=sys.stderr,
        )
        return 2

    if args.explain:
        return _explain(args.explain)

    try:
        engine = Engine(
            select=_split(args.select), ignore=_split(args.ignore)
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.list_rules:
        from repro.analysis.rules import all_project_rules, all_rules

        catalogue = {**all_rules(), **all_project_rules()}
        for rule_id, rule_cls in sorted(catalogue.items()):
            print(f"{rule_id}  {rule_cls.summary}")
        return 0

    paths = [Path(p) for p in args.paths]
    missing = [p for p in paths if not p.exists()]
    if missing:
        for p in missing:
            print(f"error: no such path: {p}", file=sys.stderr)
        return 2

    if args.changed:
        changed = _changed_files()
        if changed is None:
            print(
                "note: --changed: not a git checkout with a merge-base "
                "against origin/main; analysing the full tree",
                file=sys.stderr,
            )
        else:
            paths = _restrict_to_changed(paths, changed)
            if not paths:
                print("no changed files under the given paths")
                return 0

    cache = None
    if not args.no_cache:
        cache = LintCache(
            Path(args.cache_path), config_key(engine.rule_ids)
        )

    result = engine.check_paths(paths, cache=cache, jobs=args.jobs)

    if args.fix:
        fixes = plan_fixes(result.findings)
        if args.dry_run:
            for fix in fixes:
                diff = fix.diff()
                if diff:
                    print(diff, end="")
            print(
                f"would fix {sum(len(f.applied) for f in fixes)} finding(s) "
                f"in {sum(1 for f in fixes if f.changed)} file(s) (dry run)"
            )
        else:
            changed = apply_fixes(fixes)
            print(
                f"fixed {sum(len(f.applied) for f in fixes)} finding(s) "
                f"in {changed} file(s)"
            )
            # Re-lint so the reported findings reflect the fixed tree.
            result = engine.check_paths(paths, cache=cache, jobs=args.jobs)
        for fix in fixes:
            for rendered in fix.skipped:
                print(f"not auto-fixable: {rendered}")

    if cache is not None:
        cache.save()

    baseline_path = Path(args.baseline)
    if args.write_baseline or args.update_baseline:
        write_baseline(baseline_path, result.findings)
        print(
            f"wrote {len(result.findings)} finding"
            f"{'s' if len(result.findings) != 1 else ''} to {baseline_path}"
        )
        return 0

    if args.no_baseline:
        baseline = set()
    else:
        try:
            baseline = load_baseline(baseline_path)
        except (ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    match = match_baseline(result.findings, baseline)

    if args.output_format == "json":
        print(render_json(result, match))
    elif args.output_format == "sarif":
        print(render_sarif(result, match))
    else:
        print(render_human(result, match))

    if args.stats:
        stats = result.stats
        checked = stats.get("cache_hits", 0) + stats.get("cache_misses", 0)
        rate = stats.get("cache_hits", 0) / checked if checked else 0.0
        stream = sys.stdout if args.output_format == "human" else sys.stderr
        print(
            f"stats: {stats.get('files', 0)} files, cache "
            f"{stats.get('cache_hits', 0)}/{checked} hits ({rate:.0%}), "
            f"jobs {stats.get('jobs', 1)}, "
            f"phase1 {stats.get('phase1_s', 0.0):.3f}s, "
            f"phase2 {stats.get('phase2_s', 0.0):.3f}s",
            file=stream,
        )
    return 1 if (match.new or result.errors) else 0


def main(argv: Optional[List[str]] = None) -> int:
    """Standalone entry point for ``python -m repro.analysis``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Domain-aware static analysis for the MNTP reproduction: "
        "simulation determinism, time-unit safety, generic correctness.",
    )
    add_lint_arguments(parser)
    return run_lint(parser.parse_args(argv))


def _split(value: Optional[str]) -> Optional[List[str]]:
    if value is None:
        return None
    return [part.strip() for part in value.split(",") if part.strip()]


def _explain(rule_id: str) -> int:
    """Print one rule's catalogue entry; exit 2 with a hint if unknown."""
    import difflib
    import textwrap

    from repro.analysis.catalogue import ENTRIES
    from repro.analysis.rules import all_project_rules, all_rules

    catalogue = {**all_rules(), **all_project_rules()}
    rule_cls = catalogue.get(rule_id) or catalogue.get(rule_id.upper())
    if rule_cls is None:
        close = difflib.get_close_matches(
            rule_id.upper(), sorted(catalogue), n=1
        )
        hint = f"; did you mean {close[0]}?" if close else ""
        print(f"error: unknown rule id '{rule_id}'{hint}", file=sys.stderr)
        return 2
    extra = ENTRIES.get(rule_cls.rule_id, {})
    print(f"{rule_cls.rule_id} — {rule_cls.summary}")
    sections = (
        ("rationale", rule_cls.rationale or extra.get("rationale", "")),
        ("example", rule_cls.example or extra.get("example", "")),
        ("fix", rule_cls.fix_hint or extra.get("fix_hint", "")),
    )
    for title, body in sections:
        if body:
            print(f"\n{title}:")
            print(textwrap.indent(textwrap.dedent(body).strip("\n"), "  "))
    return 0


def _changed_files() -> Optional[List[Path]]:
    """Files changed vs the origin/main merge-base, or None without git.

    Includes committed, staged, unstaged, and untracked changes — the
    pre-commit use case wants everything the working tree differs by.
    """
    import subprocess

    def git(*argv: str) -> Optional[List[str]]:
        try:
            proc = subprocess.run(
                ["git", *argv], capture_output=True, text=True, timeout=30,
            )
        except (OSError, subprocess.SubprocessError):
            return None
        if proc.returncode != 0:
            return None
        return [line for line in proc.stdout.split("\0") if line]

    base = git("merge-base", "HEAD", "origin/main")
    if not base:
        return None
    merge_base = base[0].strip()
    diffed = git("diff", "--name-only", "-z", merge_base)
    if diffed is None:
        return None
    untracked = git("ls-files", "--others", "--exclude-standard", "-z") or []
    return [Path(name) for name in sorted(set(diffed) | set(untracked))]


def _restrict_to_changed(
    paths: List[Path], changed: List[Path]
) -> List[Path]:
    """The changed python files that fall under the requested paths."""
    roots = [p.resolve() for p in paths]
    keep: List[Path] = []
    for path in changed:
        if path.suffix != ".py" or not path.is_file():
            continue
        resolved = path.resolve()
        if any(root == resolved or root in resolved.parents
               for root in roots):
            keep.append(path)
    return keep
