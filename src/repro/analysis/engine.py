"""The rule engine: source loading, visitor dispatch, suppressions.

A :class:`Rule` is an :class:`ast.NodeVisitor` subclass instantiated
fresh for every analysed module; the :class:`Engine` parses each file
once and hands the tree to every enabled per-file rule.  A
:class:`ProjectRule` runs in a second, whole-program phase over the
:class:`repro.analysis.flow.project.Project` built from every analysed
module's flow summary, so it can see across call and module boundaries.
Findings carry a ``file:line:col`` anchor; cross-file findings also
name their far *endpoint* (``path::qualname``) so the reader sees both
ends of the edge.

Modules under ``tests/`` are policed only by rules that set
:attr:`Rule.covers_tests` (determinism, resource typestate);
every other rule guards library code alone.

Inline suppression follows the codebase convention::

    t = time.time()  # repro: noqa[DET001] calibrating against the host clock

A bare ``# repro: noqa`` (no rule list) suppresses every rule on that
line.  Suppressions apply to the physical line the finding is anchored
to.  Markers are read from comment tokens only, so the same text inside
a string literal is inert.  A malformed rule list (unclosed bracket,
empty brackets, stray separators) suppresses *nothing* and is surfaced
as a warning — a typo must never silently widen a suppression.
"""

from __future__ import annotations

import ast
import hashlib
import io
import re
import time
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

#: Bumped whenever findings, summaries, or rule semantics change shape;
#: part of the incremental cache key so stale caches self-invalidate.
TOOL_VERSION = "6.0"

#: Matches ``# repro: noqa`` with an optional ``[RULE1,RULE2]`` list.
_NOQA_RE = re.compile(r"#\s*repro:\s*noqa(?P<rest>\[[^\]]*\])?")

#: A well-formed, non-empty rule list: ``[DET001]``, ``[A, B]``.
_NOQA_RULES_RE = re.compile(r"\[\s*[A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*\s*\]")

#: Sentinel meaning "every rule" in a noqa set.
_ALL_RULES = "*"

#: Identifier tokens, for the cheap reference scan over test/script trees.
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: Directories scanned for name references (COR005's "never tested")
#: when they exist under the working directory and are not analysed.
DEFAULT_REFERENCE_ROOTS = ("tests", "scripts", "benchmarks", "examples")


@dataclass(frozen=True)
class Finding:
    """One diagnostic anchored to a source location.

    ``endpoint`` is empty for single-file findings; interprocedural
    rules set it to ``path::qualname`` of the other end (the callee, or
    the function performing a transitive effect).
    """

    rule: str
    path: str
    line: int
    col: int
    message: str
    endpoint: str = ""

    def anchor(self) -> str:
        """``path:line:col`` string for terminals and editors."""
        return f"{self.path}:{self.line}:{self.col}"

    def render(self) -> str:
        """The canonical one-line human rendering."""
        text = f"{self.anchor()}: {self.rule} {self.message}"
        if self.endpoint:
            text += f" [-> {self.endpoint}]"
        return text

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (cache record / reports)."""
        return {
            "rule": self.rule, "path": self.path, "line": self.line,
            "col": self.col, "message": self.message,
            "endpoint": self.endpoint,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Finding":
        return cls(
            rule=data["rule"], path=data["path"], line=data["line"],
            col=data["col"], message=data["message"],
            endpoint=data.get("endpoint", ""),
        )


@dataclass
class SourceModule:
    """A parsed source file plus the metadata rules need."""

    path: str                    # display path (as reported in findings)
    text: str
    tree: ast.Module
    module: Tuple[str, ...]      # dotted-module parts, e.g. ("repro", "ntp", "wire")
    noqa: Dict[int, Set[str]] = field(default_factory=dict)
    noqa_problems: List[Tuple[int, str]] = field(default_factory=list)

    @property
    def is_init(self) -> bool:
        """Whether this file is a package ``__init__.py``."""
        return self.path.endswith("__init__.py")

    @property
    def package(self) -> Optional[str]:
        """Top-level sub-package under ``repro`` (e.g. ``"simcore"``)."""
        if len(self.module) >= 2 and self.module[0] == "repro":
            return self.module[1]
        return None

    def dotted(self) -> str:
        """The dotted module name (``repro.ntp.wire``)."""
        return ".".join(self.module)


def in_tests(module: Sequence[str]) -> bool:
    """Whether dotted-module parts name a module of the tests tree."""
    return tuple(module[:1]) == ("tests",)


def _marker_comments(text: str) -> List[Tuple[int, str]]:
    """(line, text) of every comment token that mentions ``repro:``.

    Tokenizing rather than scanning raw lines keeps a ``# repro: noqa``
    inside a string literal from acting as a marker.  The caller has
    already parsed ``text``, so a tokenize failure is a syntax error.
    """
    if "repro:" not in text:
        return []
    try:
        return [
            (tok.start[0], tok.string)
            for tok in tokenize.generate_tokens(io.StringIO(text).readline)
            if tok.type == tokenize.COMMENT and "repro:" in tok.string
        ]
    except tokenize.TokenError as exc:
        raise SyntaxError(f"cannot tokenize: {exc}") from exc


def _parse_noqa(
    comments: List[Tuple[int, str]],
) -> Tuple[Dict[int, Set[str]], List[Tuple[int, str]]]:
    """Noqa table plus (line, description) pairs for malformed comments."""
    table: Dict[int, Set[str]] = {}
    problems: List[Tuple[int, str]] = []
    for lineno, line in comments:
        match = _NOQA_RE.search(line)
        if match is None:
            continue
        rest = match.group("rest")
        if rest is None:
            # Bare noqa — but an unterminated bracket right after it is
            # a typo'd rule list, not a deliberate suppress-everything.
            tail = line[match.end():].lstrip()
            if tail.startswith("["):
                problems.append(
                    (lineno,
                     "malformed noqa rule list (unclosed '['); nothing "
                     "is suppressed on this line")
                )
                continue
            table[lineno] = {_ALL_RULES}
            continue
        if not _NOQA_RULES_RE.fullmatch(rest):
            problems.append(
                (lineno,
                 f"malformed noqa rule list {rest!r}; nothing is "
                 "suppressed on this line")
            )
            continue
        rules = rest.strip("[]")
        table[lineno] = {r.strip().upper() for r in rules.split(",") if r.strip()}
    return table, problems


def module_parts_for(path: Path) -> Tuple[str, ...]:
    """Infer dotted-module parts from a filesystem path.

    The convention is that everything under a ``repro`` directory is the
    ``repro`` package (the repository keeps it under ``src/repro``), and
    everything under a ``tests`` directory is the test tree (policed by
    the rules that set :attr:`Rule.covers_tests`).  Files outside both
    get a single-part module name, which no package-scoped rule matches.
    """
    parts = list(path.parts)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if "repro" in parts:
        mod = tuple(parts[parts.index("repro"):])
    elif "tests" in parts:
        mod = tuple(parts[parts.index("tests"):])
    else:
        mod = (parts[-1],) if parts else ()
    if mod and mod[-1] == "__init__":
        mod = mod[:-1] or ("repro",)
    return mod


def source_from_text(
    text: str, *, path: str, module: Tuple[str, ...]
) -> SourceModule:
    """Parse ``text`` into a SourceModule; raises ``SyntaxError``."""
    tree = ast.parse(text, filename=path)
    comments = _marker_comments(text)
    noqa, problems = _parse_noqa(comments)
    return SourceModule(
        path=path, text=text, tree=tree, module=module,
        noqa=noqa, noqa_problems=problems,
    )


def load_source(
    path: Path,
    display_path: Optional[str] = None,
    module: Optional[Tuple[str, ...]] = None,
) -> SourceModule:
    """Read and parse ``path``; raises ``SyntaxError`` / ``OSError``."""
    text = path.read_text(encoding="utf-8")
    display = display_path if display_path is not None else _display(path)
    mod = module if module is not None else module_parts_for(path)
    return source_from_text(text, path=display, module=mod)


def _display(path: Path) -> str:
    try:
        return path.resolve().relative_to(Path.cwd()).as_posix()
    except ValueError:
        return path.as_posix()


class Rule(ast.NodeVisitor):
    """Base class for per-file analysis rules.

    Subclasses set :attr:`rule_id` and :attr:`summary`, then override
    ``visit_*`` methods (or :meth:`run` for whole-module checks) and call
    :meth:`report` for each diagnostic.  Every shipped rule also fills
    :attr:`rationale`, :attr:`example` and :attr:`fix_hint`, which
    ``lint --explain`` prints.
    """

    rule_id: str = ""
    summary: str = ""
    rationale: str = ""   # why the rule exists (one short paragraph)
    example: str = ""     # a minimal violating snippet
    fix_hint: str = ""    # how to repair a finding
    #: Whether the rule also polices modules under ``tests/``.  Most
    #: rules guard library code only: tests compare seeded replays
    #: exactly on purpose and keep imports for their fixtures.
    covers_tests: bool = False

    def __init__(self, module: SourceModule) -> None:
        self.module = module
        self.findings: List[Finding] = []

    def run(self) -> List[Finding]:
        """Visit the module tree and return the findings."""
        self.visit(self.module.tree)
        return self.findings

    def report(self, node: ast.AST, message: str) -> None:
        """Record a finding anchored at ``node``."""
        self.findings.append(
            Finding(
                rule=self.rule_id,
                path=self.module.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
                message=message,
            )
        )


class ProjectRule:
    """Base class for whole-program (phase-two) rules.

    Subclasses set :attr:`rule_id` and :attr:`summary` and implement
    :meth:`run` over ``self.project``, a
    :class:`repro.analysis.flow.project.Project`.  The documentation
    fields and :attr:`covers_tests` mirror :class:`Rule`'s.
    """

    rule_id: str = ""
    summary: str = ""
    rationale: str = ""
    example: str = ""
    fix_hint: str = ""
    covers_tests: bool = False

    def __init__(self, project: Any) -> None:
        self.project = project
        self.findings: List[Finding] = []

    def run(self) -> List[Finding]:
        """Analyse the project and return the findings."""
        raise NotImplementedError

    def report(
        self,
        *,
        path: str,
        lineno: int,
        col: int,
        message: str,
        endpoint: str = "",
    ) -> None:
        """Record a finding at an explicit location."""
        self.findings.append(
            Finding(
                rule=self.rule_id, path=path, line=lineno, col=col,
                message=message, endpoint=endpoint,
            )
        )


@dataclass
class AnalysisResult:
    """Everything one engine run produced.

    ``project`` is the phase-two :class:`~repro.analysis.flow.project.
    Project` when interprocedural rules ran (``None`` otherwise); it is
    never serialized.
    ``stats`` carries per-phase timings and cache hit counts for
    ``lint --stats``.
    """

    findings: List[Finding] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)   # unreadable/unparsable files
    warnings: List[str] = field(default_factory=list)  # e.g. malformed noqa
    files_checked: int = 0
    project: Optional[Any] = None
    stats: Dict[str, Any] = field(default_factory=dict)


class Engine:
    """Runs per-file rules then project rules, applying suppressions."""

    def __init__(
        self,
        select: Optional[Sequence[str]] = None,
        ignore: Optional[Sequence[str]] = None,
    ) -> None:
        from repro.analysis.rules import all_project_rules, all_rules

        # Kept verbatim so --jobs worker processes can rebuild an
        # identical engine from picklable arguments.
        self._select_arg = list(select) if select else None
        self._ignore_arg = list(ignore) if ignore else None
        registry = all_rules()
        project_registry = all_project_rules()
        known = set(registry) | set(project_registry)
        chosen = dict(registry)
        chosen_project = dict(project_registry)
        if select:
            wanted = {r.upper() for r in select}
            unknown = wanted - known
            if unknown:
                raise ValueError(f"unknown rule ids: {', '.join(sorted(unknown))}")
            chosen = {rid: cls for rid, cls in registry.items() if rid in wanted}
            chosen_project = {
                rid: cls for rid, cls in project_registry.items()
                if rid in wanted
            }
        if ignore:
            dropped = {r.upper() for r in ignore}
            unknown = dropped - known
            if unknown:
                raise ValueError(f"unknown rule ids: {', '.join(sorted(unknown))}")
            chosen = {rid: cls for rid, cls in chosen.items() if rid not in dropped}
            chosen_project = {
                rid: cls for rid, cls in chosen_project.items()
                if rid not in dropped
            }
        self._rules = chosen
        self._project_rules = chosen_project

    @property
    def rule_ids(self) -> List[str]:
        """Ids of the rules this engine runs, sorted."""
        return sorted(set(self._rules) | set(self._project_rules))

    def check_module(self, module: SourceModule) -> List[Finding]:
        """Run every enabled per-file rule in scope for one module."""
        tests = in_tests(module.module)
        findings: List[Finding] = []
        for rule_cls in self._rules.values():
            if rule_cls.covers_tests or not tests:
                findings.extend(rule_cls(module).run())
        return [f for f in findings if not _suppressed(f, module.noqa)]

    def _check_project(
        self,
        project: Any,
        noqa_by_path: Dict[str, Dict[int, Set[str]]],
    ) -> List[Finding]:
        """Run the project rules; drop suppressed and out-of-scope findings."""
        test_paths = {s.path for s in project.summaries if in_tests(s.module)}
        findings: List[Finding] = []
        for rule_cls in self._project_rules.values():
            for f in rule_cls(project).run():
                if f.path in test_paths and not rule_cls.covers_tests:
                    continue
                if not _suppressed(f, noqa_by_path.get(f.path, {})):
                    findings.append(f)
        return findings

    def check_source(
        self,
        text: str,
        *,
        path: str = "<memory>",
        module: str = "sample",
        project: bool = False,
    ) -> List[Finding]:
        """Analyse a source string (test/fixture convenience).

        ``project=True`` additionally runs the interprocedural rules
        over the single module, which resolves intra-module calls.
        """
        sm = source_from_text(text, path=path, module=tuple(module.split(".")))
        findings = self.check_module(sm)
        if project and self._project_rules:
            from repro.analysis.flow import Project, summarize

            findings.extend(self._check_project(
                Project([summarize(sm)]), {sm.path: sm.noqa}
            ))
        findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
        return findings

    def phase_one_record(
        self, raw: bytes, display: str, module_parts: Tuple[str, ...]
    ) -> Dict[str, Any]:
        """Phase one for one file: parse, per-file rules, flow summary.

        Returns the JSON-serializable cache record.  Raises
        ``SyntaxError`` / ``UnicodeDecodeError`` / ``ValueError`` for
        unparsable input.  Pure with respect to engine state, so it is
        safe to run in a ``--jobs`` worker process.
        """
        from repro.analysis.flow import summarize

        text = raw.decode("utf-8")
        module = source_from_text(text, path=display, module=module_parts)
        return {
            "findings": [f.to_dict() for f in self.check_module(module)],
            "summary": summarize(module).to_dict(),
            "noqa": {
                str(line): sorted(rules)
                for line, rules in module.noqa.items()
            },
            "noqa_problems": [
                [line, text] for line, text in module.noqa_problems
            ],
        }

    def check_paths(
        self,
        paths: Sequence[Path],
        *,
        cache: Optional[Any] = None,
        reference_roots: Optional[Sequence[Path]] = None,
        jobs: int = 1,
    ) -> AnalysisResult:
        """Analyse files and directories (recursed for ``*.py``).

        ``cache`` is a :class:`repro.analysis.cache.LintCache` (duck
        typed: ``lookup(path, digest)`` / ``store(path, digest,
        record)``); cached files are not re-parsed.  ``reference_roots``
        override the directories scanned for name references by the
        dead-code rule (default: existing ``tests``/``scripts``/
        ``benchmarks``/``examples`` directories).  ``jobs > 1`` fans the
        per-file phase out over a process pool; results merge back in
        file order, so output and cache contents are identical to a
        serial run.
        """
        from repro.analysis.flow import ModuleSummary, Project

        phase1_start = time.perf_counter()
        result = AnalysisResult()
        hits = 0
        # One slot per readable file, filled from cache, worker pool, or
        # the serial path — always consumed in file order.
        slots: List[Tuple[str, str, Optional[Dict[str, Any]], bytes, Tuple[str, ...]]] = []
        for path in _collect_files(paths):
            try:
                raw = path.read_bytes()
            except OSError as exc:
                result.errors.append(f"{_display(path)}: {exc}")
                continue
            display = _display(path)
            digest = hashlib.sha256(raw).hexdigest()
            record = cache.lookup(display, digest) if cache is not None else None
            if record is not None:
                hits += 1
            slots.append((display, digest, record, raw, module_parts_for(path)))
        pending = [i for i, slot in enumerate(slots) if slot[2] is None]
        computed: Dict[int, Any] = {}
        if jobs > 1 and len(pending) > 1:
            computed = self._pool_phase_one(slots, pending, jobs)
        else:
            for i in pending:
                display, _, _, raw, parts = slots[i]
                try:
                    computed[i] = self.phase_one_record(raw, display, parts)
                except (SyntaxError, UnicodeDecodeError, ValueError) as exc:
                    computed[i] = f"{display}: {exc}"
        records: List[Dict[str, Any]] = []
        for i, (display, digest, record, _, _) in enumerate(slots):
            if record is None:
                record = computed[i]
                if isinstance(record, str):  # error text from phase one
                    result.errors.append(record)
                    continue
                if cache is not None:
                    cache.store(display, digest, record)
            records.append(record)
            result.files_checked += 1
            result.findings.extend(
                Finding.from_dict(f) for f in record["findings"]
            )
            for line, text in record["noqa_problems"]:
                result.warnings.append(f"{display}:{line}: {text}")
        phase2_start = time.perf_counter()
        if self._project_rules and records:
            summaries = [
                ModuleSummary.from_dict(r["summary"]) for r in records
            ]
            noqa_by_path = {
                s.path: {
                    int(line): set(rules)
                    for line, rules in r["noqa"].items()
                }
                for s, r in zip(summaries, records)
            }
            project = Project(
                summaries,
                _reference_tokens(reference_roots, analysed=paths),
            )
            result.project = project
            result.findings.extend(self._check_project(project, noqa_by_path))
        result.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
        end = time.perf_counter()
        result.stats = {
            "files": len(slots),
            "cache_hits": hits,
            "cache_misses": len(pending),
            "jobs": jobs,
            "phase1_s": phase2_start - phase1_start,
            "phase2_s": end - phase2_start,
        }
        return result

    def _pool_phase_one(
        self,
        slots: Sequence[Tuple[str, str, Optional[Dict[str, Any]], bytes, Tuple[str, ...]]],
        pending: Sequence[int],
        jobs: int,
    ) -> Dict[int, Any]:
        """Run phase one for cache misses on a process pool.

        ``executor.map`` preserves input order, so the merge back into
        ``slots`` order is deterministic regardless of which worker
        finished first.  Falls back to serial execution when the
        platform cannot spawn processes (restricted sandboxes).
        """
        from concurrent.futures import ProcessPoolExecutor

        items = [
            (slots[i][0], slots[i][3], slots[i][4]) for i in pending
        ]
        try:
            with ProcessPoolExecutor(
                max_workers=min(jobs, len(items)),
                initializer=_pool_init,
                initargs=(self._select_arg, self._ignore_arg),
            ) as pool:
                outputs = list(pool.map(_pool_run, items, chunksize=4))
        except (OSError, ValueError, RuntimeError):
            outputs = []
            for display, raw, parts in items:
                try:
                    outputs.append(self.phase_one_record(raw, display, parts))
                except (SyntaxError, UnicodeDecodeError, ValueError) as exc:
                    outputs.append(f"{display}: {exc}")
        return dict(zip(pending, outputs))


#: Per-process engine for the --jobs pool, built once by the initializer
#: so each worker pays rule-registry setup a single time.
_POOL_ENGINE: Optional[Engine] = None


def _pool_init(select: Optional[List[str]], ignore: Optional[List[str]]) -> None:
    global _POOL_ENGINE
    _POOL_ENGINE = Engine(select=select, ignore=ignore)


def _pool_run(item: Tuple[str, bytes, Tuple[str, ...]]) -> Any:
    """Phase one in a worker: a record dict, or error text on failure."""
    display, raw, parts = item
    assert _POOL_ENGINE is not None
    try:
        return _POOL_ENGINE.phase_one_record(raw, display, parts)
    except (SyntaxError, UnicodeDecodeError, ValueError) as exc:
        return f"{display}: {exc}"


def _suppressed(finding: Finding, noqa: Dict[int, Set[str]]) -> bool:
    rules = noqa.get(finding.line)
    if not rules:
        return False
    return _ALL_RULES in rules or finding.rule in rules


def _collect_files(paths: Sequence[Path]) -> List[Path]:
    files: List[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(
                p for p in sorted(path.rglob("*.py"))
                if not any(part.startswith(".") for part in p.parts)
            )
        else:
            files.append(path)
    return files


def _reference_tokens(
    roots: Optional[Sequence[Path]], analysed: Sequence[Path]
) -> Set[str]:
    """Identifier tokens from reference trees (for COR005).

    A deliberately coarse textual scan: any identifier occurring in a
    test/script file counts as a reference, so dynamic access patterns
    (``getattr(mod, "poll")``) keep a function alive.  Trees already
    being analysed contribute AST-level references instead and are
    skipped here.
    """
    if roots is None:
        analysed_resolved = {p.resolve() for p in analysed}
        roots = [
            Path(name) for name in DEFAULT_REFERENCE_ROOTS
            if Path(name).is_dir() and Path(name).resolve() not in analysed_resolved
        ]
    tokens: Set[str] = set()
    for root in roots:
        for file in _collect_files([root]):
            try:
                text = file.read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError):
                continue
            tokens.update(_IDENT_RE.findall(text))
    return tokens
