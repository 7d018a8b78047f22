"""Per-module flow summaries: the unit of whole-program analysis.

Interprocedural analysis never holds two ASTs at once.  Phase one
reduces every module to a :class:`ModuleSummary` — its functions with
parameter/return unit declarations, the calls they make (with the unit
each argument carries), the determinism-relevant *effects* they perform
directly, and the names the module references.  Phase two
(:mod:`repro.analysis.flow.project`) stitches the summaries into a call
graph and propagates units and effects across it.

The summary is built once per module (``SourceModule.summary``) and is
the one place that classifies a call as a wall-clock or global-RNG
effect: DET001-DET003 report its effect sites and DET004 follows them
across calls.  Each call belongs to the function that evaluates it: a
def's defaults, decorators and annotations to the scope the def runs
in, a nested def or lambda to its enclosing function.  An effect site
under a matching noqa is kept but marked ``suppressed``, which stops
DET004 chains through it and nothing else.

Summaries are plain data holding no AST nodes, so the engine keeps
only a module's summary once its per-file rules have run.

Call targets are recorded as *resolution keys*, resolved lazily by the
project pass:

* ``d:pkg.mod.name`` — import-resolved dotted path (alias-aware, via
  the module's :class:`~repro.analysis.rules.base.ImportMap`),
* ``l:name`` — a bare name in the defining module,
* ``s:Class.name`` — a ``self.``/``cls.`` method call,
* ``a:name`` — an attribute call on an object of unknown type (the
  project pass resolves it only when the name is project-unique).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.analysis.engine import SourceModule
from repro.analysis.rules.base import suffix_unit
from repro.analysis.rules.determinism import (
    EFFECT_RULES,
    NUMPY_GLOBAL_RNG_CALLS,
    RNG_HOME,
    WALL_CLOCK_CALLS,
)

#: Pseudo-function holding module-level (import-time) calls and effects.
MODULE_BODY = "<module>"

@dataclass
class ArgUnit:
    """One call argument that might carry a unit."""

    position: Optional[int]        # positional index (callee-side), or None
    keyword: Optional[str]         # keyword name, or None
    unit: Optional[str]            # unit declared by the argument's name suffix
    call_ref: Optional[str]        # resolution key when the argument is a call
    display: str                   # short source text for messages


@dataclass
class CallSite:
    """One call expression inside a function body."""

    ref: str                       # resolution key (see module docstring)
    lineno: int
    col: int
    args: List[ArgUnit] = field(default_factory=list)


@dataclass
class EffectSite:
    """A direct determinism-relevant call (wall clock / global RNG)."""

    kind: str                      # key into EFFECT_RULES
    dotted: str                    # canonical dotted call, e.g. "time.sleep"
    lineno: int
    col: int
    suppressed: bool               # a noqa on the line stops DET004 chains


@dataclass
class AssignFromCall:
    """A unit-suffixed name assigned directly from a call result."""

    target: str                    # display name ("offset_s", "self.delay_ms")
    unit: str                      # unit the target's suffix declares
    ref: str                       # resolution key of the called function
    lineno: int
    col: int


@dataclass
class FunctionInfo:
    """Everything the project pass needs to know about one function."""

    qualname: str                  # "poll" or "SntpClient.poll" or MODULE_BODY
    name: str
    lineno: int
    col: int
    pos_params: List[Tuple[str, Optional[str]]] = field(default_factory=list)
    kw_units: Dict[str, Optional[str]] = field(default_factory=dict)
    has_vararg: bool = False
    has_kwarg: bool = False
    name_unit: Optional[str] = None    # unit declared by the function name
    return_descs: List[str] = field(default_factory=list)  # "u:ms"/"c:<ref>"/"?"
    calls: List[CallSite] = field(default_factory=list)
    effects: List[EffectSite] = field(default_factory=list)
    is_public: bool = True
    is_method: bool = False
    decorated: bool = False


@dataclass
class ClassInfo:
    """A class: constructor signature (for UNIT004) and method table."""

    name: str
    lineno: int
    bases: List[str] = field(default_factory=list)   # resolution keys
    ctor_pos_params: List[Tuple[str, Optional[str]]] = field(default_factory=list)
    ctor_kw_units: Dict[str, Optional[str]] = field(default_factory=dict)
    methods: List[str] = field(default_factory=list)


@dataclass
class ModuleSummary:
    """One module, reduced to what interprocedural rules consume."""

    path: str
    module: Tuple[str, ...]
    functions: List[FunctionInfo] = field(default_factory=list)
    classes: List[ClassInfo] = field(default_factory=list)
    assigns: List[AssignFromCall] = field(default_factory=list)
    referenced: Set[str] = field(default_factory=set)
    import_bindings: Dict[str, str] = field(default_factory=dict)

    def dotted(self) -> str:
        """The dotted module name (``repro.ntp.wire``)."""
        return ".".join(self.module)

    @property
    def package(self) -> Optional[str]:
        if len(self.module) >= 2 and self.module[0] == "repro":
            return self.module[1]
        return None


def summarize(module: SourceModule) -> ModuleSummary:
    """Reduce a parsed module to its flow summary (``SourceModule.summary``)."""
    return _Summarizer(module).run()


# ---------------------------------------------------------------------------
# extraction


def _short(node: ast.AST, limit: int = 40) -> str:
    try:
        text = ast.unparse(node)
    except Exception:  # pragma: no cover - unparse failure is cosmetic only
        text = "<expr>"
    return text if len(text) <= limit else text[: limit - 3] + "..."


def _unit_of(node: ast.AST) -> Optional[str]:
    """Unit a value expression declares via a name suffix, if any.

    Unwraps unary minus and subscripts (``delays_ms[i]`` is read as
    milliseconds: the container suffix states the element unit).
    """
    while True:
        if isinstance(node, ast.UnaryOp):
            node = node.operand
        elif isinstance(node, ast.Subscript):
            node = node.value
        else:
            break
    if isinstance(node, ast.Name):
        return suffix_unit(node.id)
    if isinstance(node, ast.Attribute):
        return suffix_unit(node.attr)
    return None


def _header(
    node: Union[ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef],
) -> List[ast.AST]:
    """The parts of a def or class evaluated where the statement runs:
    decorators, defaults, annotations, bases and keywords."""
    body = {id(stmt) for stmt in node.body}
    return [
        child for child in ast.iter_child_nodes(node) if id(child) not in body
    ]


class _Summarizer:
    def __init__(self, module: SourceModule) -> None:
        self.module = module
        self.imports = module.imports
        self.summary = ModuleSummary(path=module.path, module=module.module)
        self._exempt_rng = module.module == RNG_HOME

    def run(self) -> ModuleSummary:
        tree = self.module.tree
        module_fn = FunctionInfo(
            qualname=MODULE_BODY, name=MODULE_BODY, lineno=1, col=1,
            is_public=False,
        )
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._function(stmt, class_name=None, module_fn=module_fn)
            elif isinstance(stmt, ast.ClassDef):
                self._class(stmt, module_fn)
            else:
                self._collect(stmt, module_fn, function=MODULE_BODY,
                              collect_returns=False, class_name=None)
        self.summary.functions.append(module_fn)
        self._references(tree)
        self.summary.import_bindings = {
            local: dotted
            for local, dotted in self.imports.aliases.items()
            if dotted.startswith("repro.") or dotted == "repro"
        }
        return self.summary

    # -- functions ---------------------------------------------------------

    def _function(
        self,
        node: ast.AST,
        class_name: Optional[str],
        module_fn: FunctionInfo,
    ) -> None:
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        qualname = f"{class_name}.{node.name}" if class_name else node.name
        info = FunctionInfo(
            qualname=qualname, name=node.name,
            lineno=node.lineno, col=node.col_offset + 1,
            name_unit=suffix_unit(node.name),
            is_public=not node.name.startswith("_"),
            is_method=class_name is not None,
            decorated=bool(node.decorator_list),
        )
        _signature_units(node.args, info, skip_first=class_name is not None)
        for part in _header(node):
            # Decorators, defaults and annotations run at import time.
            self._collect(part, module_fn, function=MODULE_BODY,
                          collect_returns=False, class_name=class_name)
        for stmt in node.body:
            self._collect(stmt, info, function=qualname,
                          collect_returns=True, class_name=class_name)
        self.summary.functions.append(info)

    def _class(self, node: ast.ClassDef, module_fn: FunctionInfo) -> None:
        cls_info = ClassInfo(name=node.name, lineno=node.lineno)
        for part in _header(node):
            self._collect(part, module_fn, function=MODULE_BODY,
                          collect_returns=False, class_name=None)
        for base in node.bases:
            ref = self._ref(base, class_name=None)
            if ref is not None:
                cls_info.bases.append(ref)
        is_dataclass = any(
            self.imports.resolve(d.func if isinstance(d, ast.Call) else d)
            == "dataclasses.dataclass"
            for d in node.decorator_list
        )
        fields: List[Tuple[str, Optional[str]]] = []
        ctor: Optional[ast.FunctionDef] = None
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                cls_info.methods.append(stmt.name)
                if stmt.name == "__init__" and isinstance(stmt, ast.FunctionDef):
                    ctor = stmt
                self._function(stmt, class_name=node.name, module_fn=module_fn)
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                if not stmt.target.id.startswith("_"):
                    fields.append(
                        (stmt.target.id, suffix_unit(stmt.target.id))
                    )
                self._collect(stmt.annotation, module_fn, function=MODULE_BODY,
                              collect_returns=False, class_name=node.name)
                if stmt.value is not None:
                    self._collect(stmt.value, module_fn, function=MODULE_BODY,
                                  collect_returns=False, class_name=node.name)
                    self._assign(stmt, node.name)
            else:
                # Class-body statements execute at import time.
                self._collect(stmt, module_fn, function=MODULE_BODY,
                              collect_returns=False, class_name=node.name)
        if ctor is not None:
            pseudo = FunctionInfo(qualname="", name="", lineno=0, col=0)
            _signature_units(ctor.args, pseudo, skip_first=True)
            cls_info.ctor_pos_params = pseudo.pos_params
            cls_info.ctor_kw_units = pseudo.kw_units
        elif is_dataclass:
            cls_info.ctor_pos_params = fields
            cls_info.ctor_kw_units = dict(fields)
        self.summary.classes.append(cls_info)

    # -- bodies ------------------------------------------------------------

    def _collect(
        self,
        node: ast.AST,
        info: FunctionInfo,
        function: str,
        collect_returns: bool,
        class_name: Optional[str],
    ) -> None:
        """Walk a statement/expression, recording calls, effects, returns.

        A nested def or lambda, header and body alike, is folded into
        the enclosing function's call and effect sets (its execution is
        attributed to it), but its ``return`` statements are not the
        enclosing function's.
        """
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            collect_returns = False
        if isinstance(node, ast.Return) and collect_returns:
            if node.value is not None:
                self.summary_return(info, node.value, class_name)
        if isinstance(node, ast.Call):
            self._call(node, info, class_name)
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            self._assign(node, class_name)
        for child in ast.iter_child_nodes(node):
            self._collect(child, info, function, collect_returns, class_name)

    def summary_return(
        self, info: FunctionInfo, value: ast.AST, class_name: Optional[str]
    ) -> None:
        unit = _unit_of(value)
        if unit is not None:
            info.return_descs.append(f"u:{unit}")
            return
        if isinstance(value, ast.Call):
            ref = self._ref(value.func, class_name)
            if ref is not None:
                info.return_descs.append(f"c:{ref}")
                return
        info.return_descs.append("?")

    def _call(
        self, node: ast.Call, info: FunctionInfo, class_name: Optional[str]
    ) -> None:
        self._effect(node, info)
        ref = self._ref(node.func, class_name)
        if ref is None:
            return
        site = CallSite(ref=ref, lineno=node.lineno, col=node.col_offset + 1)
        position = 0
        for arg in node.args:
            if isinstance(arg, ast.Starred):
                break  # positional mapping unknown past *args
            site.args.append(self._arg(arg, position, None, class_name))
            position += 1
        for kw in node.keywords:
            if kw.arg is None:
                continue  # **kwargs
            site.args.append(self._arg(kw.value, None, kw.arg, class_name))
        info.calls.append(site)

    def _arg(
        self,
        value: ast.AST,
        position: Optional[int],
        keyword: Optional[str],
        class_name: Optional[str],
    ) -> ArgUnit:
        call_ref = None
        if isinstance(value, ast.Call):
            call_ref = self._ref(value.func, class_name)
        return ArgUnit(
            position=position, keyword=keyword, unit=_unit_of(value),
            call_ref=call_ref, display=_short(value),
        )

    def _assign(self, node: ast.AST, class_name: Optional[str]) -> None:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        else:
            assert isinstance(node, ast.AnnAssign)
            targets, value = [node.target], node.value
        if not isinstance(value, ast.Call):
            return
        ref = self._ref(value.func, class_name)
        if ref is None:
            return
        for target in targets:
            name = None
            if isinstance(target, ast.Name):
                name = target.id
            elif isinstance(target, ast.Attribute):
                name = target.attr
            if name is None:
                continue
            unit = suffix_unit(name)
            if unit is None:
                continue
            display = name if isinstance(target, ast.Name) else _short(target)
            self.summary.assigns.append(
                AssignFromCall(
                    target=display, unit=unit, ref=ref,
                    lineno=node.lineno, col=node.col_offset + 1,
                )
            )

    def _effect(self, node: ast.Call, info: FunctionInfo) -> None:
        dotted = self.imports.resolve(node.func)
        if dotted is None:
            return
        kind: Optional[str] = None
        if dotted in WALL_CLOCK_CALLS:
            kind = "wall-clock"
        elif not self._exempt_rng:
            if dotted == "random" or dotted.startswith("random."):
                kind = "stdlib-random"
            elif dotted in NUMPY_GLOBAL_RNG_CALLS:
                kind = "numpy-global-rng"
            elif (
                dotted == "numpy.random.default_rng"
                and not node.args and not node.keywords
            ):
                kind = "numpy-global-rng"
        if kind is None:
            return
        # A noqa of the direct rule (or DET004) silences propagation too.
        rules = self.module.noqa.get(node.lineno, set())
        info.effects.append(
            EffectSite(
                kind=kind, dotted=dotted,
                lineno=node.lineno, col=node.col_offset + 1,
                suppressed=bool(rules & {"*", "DET004", EFFECT_RULES[kind]}),
            )
        )

    # -- references and resolution keys ------------------------------------

    def _references(self, tree: ast.Module) -> None:
        referenced = self.summary.referenced
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)

    def _ref(self, func: ast.AST, class_name: Optional[str]) -> Optional[str]:
        dotted = self.imports.resolve(func)
        if dotted is not None:
            return f"d:{dotted}"
        if isinstance(func, ast.Name):
            return f"l:{func.id}"
        if isinstance(func, ast.Attribute):
            base = func.value
            if (
                isinstance(base, ast.Name)
                and base.id in ("self", "cls")
                and class_name is not None
            ):
                return f"s:{class_name}.{func.attr}"
            return f"a:{func.attr}"
        return None


def _signature_units(
    args: ast.arguments, info: FunctionInfo, skip_first: bool
) -> None:
    positional = list(args.posonlyargs) + list(args.args)
    if skip_first and positional:
        positional = positional[1:]
    info.pos_params = [(a.arg, suffix_unit(a.arg)) for a in positional]
    info.kw_units = {a.arg: suffix_unit(a.arg) for a in positional}
    info.kw_units.update(
        {a.arg: suffix_unit(a.arg) for a in args.kwonlyargs}
    )
    info.has_vararg = args.vararg is not None
    info.has_kwarg = args.kwarg is not None
