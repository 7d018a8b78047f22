"""RES001 and RES003: resource typestate over the per-function CFG.

The codebase has two resource-shaped protocols whose "release" half
is easy to drop on one branch and impossible for a per-statement rule
to check:

* **Span handles** (RES001) — ``tracer.begin(...)`` /
  ``<x>.spans.begin(...)`` returns a handle that must be ``.end()``-ed;
  a span left open produces *no* trace record, so the leak silently
  erases telemetry for exactly the path that went wrong.
* **File handles** (RES003, library code only) — ``open()`` outside a
  ``with`` leaks the descriptor on any early return or error branch.

Both share one forward may-analysis: an *acquisition* assigned to
a local enters the ``open`` state; a release-method call, an ownership
transfer (the handle is passed to a call, returned, aliased, stored
into an attribute/container, or captured by a nested function), or a
rebinding kills it.  A handle still open on any edge into the function
exit is reported at its acquisition site.  Branch guards on the handle
(``if span is not None: span.end()``) are honoured via the CFG's edge
guards — the conditional-acquisition idiom used throughout ``src/``
does not false-positive, which is what makes these rules gateable.

Acquisitions managed by a ``with`` block are never tracked (the
context manager releases them), and functions whose CFG is unsupported
(generators, async defs) are skipped gracefully.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.engine import Finding, Rule, SourceModule
from repro.analysis.flow.cfg import (
    CFG,
    CaseBind,
    Edge,
    ExceptBind,
    ForBind,
    WithEnter,
    WithExit,
    function_cfgs,
)
from repro.analysis.flow.dataflow import (
    Analysis,
    each_item_state,
    exit_edge_states,
    solve_forward,
)
from repro.analysis.rules import register
from repro.analysis.rules.base import ImportMap

#: kind -> (release method names, human noun, fix advice)
_KINDS = {
    "span": (
        frozenset({"end"}),
        "span handle",
        "call .end() on every path or use 'with'",
    ),
    "file": (
        frozenset({"close"}),
        "file handle",
        "use 'with open(...)' or close() it on every path",
    ),
}

_RULE_FOR_KIND = {"span": "RES001", "file": "RES003"}

#: Receivers whose ``.begin``/``.span`` call yields a span handle.
_SPAN_RECEIVERS = frozenset({"spans", "tracer", "_tracer"})

_CACHE_ATTR = "_resource_findings_cache"


def _attr_parts(node: ast.AST) -> Optional[List[str]]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    parts.reverse()
    return parts


class _Acq(Tuple[str, int, int, str]):
    """(kind, lineno, col, display) — immutable, joinable by min-site."""

    __slots__ = ()


def _acq(kind: str, node: ast.AST, display: str) -> _Acq:
    return _Acq((kind, node.lineno, node.col_offset + 1, display))


class _ResourceAnalysis(Analysis):
    """Forward may-open analysis; state: var name -> acquisition."""

    def __init__(self, module: SourceModule, imports: ImportMap) -> None:
        self.module = module
        self.imports = imports
        self.in_library = module.module[:1] == ("repro",)

    # -- lattice ------------------------------------------------------------

    def initial(self) -> Dict[str, _Acq]:
        return {}

    def join(self, a: Dict[str, _Acq], b: Dict[str, _Acq]) -> Dict[str, _Acq]:
        merged = dict(a)
        for var, acq in b.items():
            other = merged.get(var)
            # Same handle acquired on both branches: anchor the report
            # at the earliest acquisition site.
            merged[var] = acq if other is None else min(other, acq)
        return merged

    # -- acquisition matchers ------------------------------------------------

    def acquisition_kind(self, node: ast.AST) -> Optional[str]:
        """The resource kind a call expression acquires, if any."""
        if not isinstance(node, ast.Call):
            return None
        func = node.func
        if isinstance(func, ast.Name):
            if func.id == "open" and self.in_library:
                # A local/imported redefinition of open() is not the
                # builtin; ImportMap resolves those, builtins it won't.
                if self.imports.resolve(func) in (None, "open"):
                    return "file"
            return None
        if isinstance(func, ast.Attribute):
            if func.attr in ("begin", "span"):
                parts = _attr_parts(func)
                if parts is not None and len(parts) >= 2 and (
                    parts[-2] in _SPAN_RECEIVERS
                ):
                    return "span"
        return None

    def _acquired_kinds(self, value: ast.AST) -> Optional[Tuple[str, ast.AST]]:
        """Acquisition reachable at the top of an RHS expression.

        Sees through the conditional idioms used for optional telemetry
        (``begin(...) if t else None``, ``t and t.begin(...)``).
        """
        kind = self.acquisition_kind(value)
        if kind is not None:
            return kind, value
        branches: List[ast.AST] = []
        if isinstance(value, ast.IfExp):
            branches = [value.body, value.orelse]
        elif isinstance(value, ast.BoolOp):
            branches = list(value.values)
        for branch in branches:
            found = self._acquired_kinds(branch)
            if found is not None:
                return found
        return None

    # -- transfer ------------------------------------------------------------

    def transfer(self, item: object, state: Dict[str, _Acq]) -> Dict[str, _Acq]:
        if not isinstance(item, ast.stmt) and not isinstance(
            item, (WithEnter, WithExit, ForBind, ExceptBind, CaseBind)
        ):
            return state
        if isinstance(item, WithExit):
            return state
        new = dict(state)
        if isinstance(item, WithEnter):
            for withitem in item.node.items:
                # Tracked handles fed to a manager escape into it.
                for name in _loads_in(withitem.context_expr, set(new)):
                    new.pop(name, None)
                if withitem.optional_vars is not None:
                    for name in _bound_names(withitem.optional_vars):
                        new.pop(name, None)
            return new
        if isinstance(item, ForBind):
            for name in _bound_names(item.node.target):
                new.pop(name, None)
            return new
        if isinstance(item, ExceptBind):
            if item.node.name:
                new.pop(item.node.name, None)
            return new
        if isinstance(item, CaseBind):
            for name in _pattern_names(item.node.pattern):
                new.pop(name, None)
            return new

        assert isinstance(item, ast.stmt)
        # 1. releases: receiver of a kind-matching release method.
        for name in _released_names(item, new):
            new.pop(name, None)
        # 2. ownership transfers kill tracking (the new owner closes).
        for name in _escaped_names(item, new):
            new.pop(name, None)
        # 3. rebinding / deletion.
        if isinstance(item, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                item.targets if isinstance(item, ast.Assign) else [item.target]
            )
            for target in targets:
                for name in _bound_names(target):
                    new.pop(name, None)
        elif isinstance(item, ast.Delete):
            for target in item.targets:
                if isinstance(target, ast.Name):
                    new.pop(target.id, None)
        # 4. acquisitions bound to a plain local name.
        value = None
        if isinstance(item, ast.Assign) and len(item.targets) == 1:
            target, value = item.targets[0], item.value
        elif isinstance(item, ast.AnnAssign) and item.value is not None:
            target, value = item.target, item.value
        if value is not None and isinstance(target, ast.Name):
            found = self._acquired_kinds(value)
            if found is not None:
                kind, call = found
                new[target.id] = _acq(kind, call, target.id)
        return new

    def transfer_edge(self, edge: Edge, state: Dict[str, _Acq]) -> Dict[str, _Acq]:
        guard = edge.guard
        if guard is None or guard.truthy or guard.name not in state:
            return state
        # The handle is known falsy (None) along this edge, so it was
        # never acquired on the paths that reach here.
        new = dict(state)
        new.pop(guard.name, None)
        return new


def _released_names(stmt: ast.stmt, state: Dict[str, _Acq]) -> Set[str]:
    released: Set[str] = set()
    for node in ast.walk(stmt):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
        ):
            name = node.func.value.id
            acq = state.get(name)
            if acq is not None and node.func.attr in _KINDS[acq[0]][0]:
                released.add(name)
    return released


def _loads_in(node: ast.AST, tracked: Set[str]) -> Set[str]:
    found: Set[str] = set()
    for child in ast.walk(node):
        if (
            isinstance(child, ast.Name)
            and isinstance(child.ctx, ast.Load)
            and child.id in tracked
        ):
            found.add(child.id)
    return found


def _escaped_names(stmt: ast.stmt, state: Dict[str, _Acq]) -> Set[str]:
    """Tracked names whose ownership leaves the function via ``stmt``.

    Escaping positions: call arguments, return values, raise operands,
    right-hand sides of assignments (aliasing or storage), and the body
    of a nested function/class definition.  Receiver positions
    (``v.end()``) are *not* escapes — releases handle those.
    """
    tracked = set(state)
    if not tracked:
        return set()
    escaped: Set[str] = set()
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        for inner in stmt.body:
            escaped |= _loads_in(inner, tracked)
        return escaped
    for node in ast.walk(stmt):
        if isinstance(node, ast.Call):
            for arg in node.args:
                escaped |= _loads_in(arg, tracked)
            for kw in node.keywords:
                escaped |= _loads_in(kw.value, tracked)
        elif isinstance(node, ast.Return) and node.value is not None:
            escaped |= _loads_in(node.value, tracked)
        elif isinstance(node, ast.Raise):
            for part in (node.exc, node.cause):
                if part is not None:
                    escaped |= _loads_in(part, tracked)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            if node.value is not None:
                escaped |= _loads_in(node.value, tracked)
            # Subscript/attribute targets evaluate tracked names too
            # (d[span] = x); plain Name targets are rebinds, not loads.
            targets = (
                node.targets if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                if not isinstance(target, ast.Name):
                    escaped |= _loads_in(target, tracked)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.Lambda)):
            body = node.body if isinstance(node.body, list) else [node.body]
            for inner in body:
                escaped |= _loads_in(inner, tracked)
    return escaped


def _bound_names(target: ast.AST) -> Iterable[str]:
    for node in ast.walk(target):
        if isinstance(node, ast.Name) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            yield node.id
        elif isinstance(node, ast.Starred):
            continue


def _pattern_names(pattern: ast.AST) -> Iterable[str]:
    for node in ast.walk(pattern):
        if isinstance(node, ast.MatchAs) and node.name:
            yield node.name
        elif isinstance(node, ast.MatchStar) and node.name:
            yield node.name
        elif isinstance(node, ast.MatchMapping) and node.rest:
            yield node.rest


def _function_findings(
    module: SourceModule,
    analysis: _ResourceAnalysis,
    qualname: str,
    cfg: CFG,
) -> List[Finding]:
    state_in = solve_forward(cfg, analysis)
    findings: List[Finding] = []
    seen: Set[Tuple[str, _Acq]] = set()

    # Fire-and-forget acquisitions: the handle is dropped on the spot.
    for _, item, state in each_item_state(cfg, analysis, state_in):
        if isinstance(item, ast.Expr):
            kind = analysis.acquisition_kind(item.value)
            if kind is None:
                continue
            if kind == "file" and not analysis.in_library:
                continue
            releases, noun, advice = _KINDS[kind]
            findings.append(Finding(
                rule=_RULE_FOR_KIND[kind],
                path=module.path,
                line=item.value.lineno,
                col=item.value.col_offset + 1,
                message=(
                    f"{noun} acquired in '{qualname}' is dropped without "
                    f"{'/'.join(sorted(releases))}(); {advice}"
                ),
            ))

    # Handles still open on an edge into the exit.
    leaks: Dict[Tuple[str, _Acq], Tuple[int, str]] = {}
    for edge, state in exit_edge_states(cfg, analysis, state_in):
        for var, acq in state.items():
            key = (var, acq)
            exit_line = _edge_line(cfg, edge)
            prev = leaks.get(key)
            if prev is None or (exit_line, edge.kind) < prev:
                leaks[key] = (exit_line, edge.kind)
    for (var, acq), (exit_line, exit_kind) in sorted(
        leaks.items(), key=lambda kv: (kv[0][1], kv[0][0])
    ):
        if (var, acq) in seen:
            continue
        seen.add((var, acq))
        kind, lineno, col, display = acq
        releases, noun, advice = _KINDS[kind]
        where = f"line {exit_line}" if exit_line else "the end of the function"
        findings.append(Finding(
            rule=_RULE_FOR_KIND[kind],
            path=module.path,
            line=lineno,
            col=col,
            message=(
                f"{noun} '{display}' opened in '{qualname}' is not "
                f"{'/'.join(sorted(releases))}()-ed on every path "
                f"(leaks on the {exit_kind} path via {where}); {advice}"
            ),
        ))
    return findings


def _edge_line(cfg: CFG, edge: Edge) -> int:
    block = cfg.blocks[edge.src]
    for item in reversed(block.items):
        node = getattr(item, "node", item)
        lineno = getattr(node, "lineno", None)
        if lineno is not None:
            return int(lineno)
    return 0


def resource_findings(module: SourceModule) -> List[Finding]:
    """All RES findings for one module (computed once, shared by rules)."""
    cached = getattr(module, _CACHE_ATTR, None)
    if cached is not None:
        return cached
    imports = ImportMap(module.tree)
    analysis = _ResourceAnalysis(module, imports)
    findings: List[Finding] = []
    for node, qualname, cfg in function_cfgs(module.tree):
        if cfg is None:
            continue  # generator/async: skipped gracefully
        findings.extend(_function_findings(module, analysis, qualname, cfg))
    findings.sort(key=lambda f: (f.line, f.col, f.rule, f.message))
    setattr(module, _CACHE_ATTR, findings)
    return findings


class _ResourceRule(Rule):
    """Base: filter the shared resource analysis down to one rule id."""

    covers_tests = True

    def run(self) -> List[Finding]:
        return [
            f for f in resource_findings(self.module)
            if f.rule == self.rule_id
        ]


@register
class SpanLeakRule(_ResourceRule):
    rule_id = "RES001"
    summary = (
        "a span handle from tracer/spans .begin() must be .end()-ed on "
        "every path out of the function (or managed by 'with'); an "
        "unclosed span silently drops its trace record"
    )
    rationale = (
        "A span only emits its trace record at .end(); leaking it on an "
        "early return or raise erases the trace for exactly the path "
        "that went wrong. The check is path-sensitive: conditional "
        "acquisition guarded by 'if span is not None' is fine, and a "
        "handle passed onward (stored, returned, captured) transfers "
        "ownership instead of leaking."
    )
    example = (
        "span = tracer.begin('work')\n"
        "if cond:\n"
        "    return early   # span never ends on this path\n"
        "span.end()"
    )
    fix_hint = (
        "Use 'with tracer.span(...):', or end the span in a finally/"
        "catch-all handler so every exit path closes it."
    )


@register
class FileHandleRule(_ResourceRule):
    rule_id = "RES003"
    summary = (
        "library code must open files via 'with' (or close() the handle "
        "on every path); bare open() leaks the descriptor on early "
        "returns and error branches"
    )
    rationale = (
        "A descriptor leaked per call adds up fast in a long-running "
        "service (ROADMAP #5) and under the process fan-out; CPython's "
        "refcounting hides the bug locally and ships it to production. "
        "Applies to repro.* library modules only."
    )
    example = (
        "f = open(path)\n"
        "data = f.read()   # an exception here leaks the descriptor\n"
        "f.close()"
    )
    fix_hint = "with open(path) as f: — or close() in a finally."
