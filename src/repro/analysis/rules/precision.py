"""PREC001-004: interval/value-range precision analysis over the CFG.

The UNIT rules check unit *names*; these rules check unit *values*.  A
per-function forward dataflow tracks an abstract value for each local:

* an interval ``[lo, hi]`` (seeded from unit suffixes — an ``_ns``
  quantity can legitimately reach ~4e18, a century in nanoseconds),
* whether the value is a float,
* the finest time *tier* it carries (``ns``/``us``/``ms``/``s``),
* whether a division chain has already *downscaled* it (truncated away
  sub-tier digits), and
* whether it is a raw NTP-era timestamp (eras wrap in 2036).

The four rules are the precision contracts the µs/ns scenario tier
(ROADMAP #4c) depends on:

* **PREC001** — an ``_ns``/``_us`` integer flows into float arithmetic
  while its range exceeds the 2^53 window where doubles are
  integer-exact; the low bits silently round away.
* **PREC002** — a µs/ns-tier value is routed through the NTP 16.16
  short format (``encode_short``), whose resolution floor is ~15.26 µs;
  everything below the µs tier truncates.  The codec home
  (``repro.ntp.timestamps``) is exempt — it *implements* the format.
* **PREC003** — raw NTP-era timestamps compared by magnitude
  (``a < b``); NTP time wraps eras in 2036, so ordering must go
  through a wrapped difference, not a direct compare.
* **PREC004** — a division chain collapses ``_ns`` precision before
  the final convert: a tier-coarsening floor-divide (or ``int()`` of a
  true divide) whose result is scaled back up or stored under a
  finer-tier suffix.  The truncation is permanent; convert once, at
  the end.

Like the RES rules, the pass runs per function CFG, is shared by all
four rule classes through a per-module cache, and skips generators and
async functions gracefully.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.analysis.engine import Finding, Rule, SourceModule
from repro.analysis.flow.cfg import (
    CaseBind,
    ExceptBind,
    ForBind,
    WithEnter,
    WithExit,
    function_cfgs,
)
from repro.analysis.flow.dataflow import Analysis, each_item_state, solve_forward
from repro.analysis.rules import register
from repro.analysis.rules.base import ImportMap, suffix_unit

#: Doubles are integer-exact up to 2^53; an int beyond it loses low bits
#: the moment it touches float arithmetic.
_EXACT_WINDOW = float(2 ** 53)

_INF = float("inf")

#: Seed ranges per unit suffix: |value| <= ~a century expressed in that
#: unit.  Only ns and us exceed the 2^53 window.
_TIER_RANGE = {"ns": 4e18, "us": 4e15, "ms": 4e12, "s": 4e9}

#: Tier ordering, finest first.
_TIERS = ("ns", "us", "ms", "s")

#: Dotted targets whose result is a raw NTP-era timestamp.
_NTP_RAW_FUNCS = frozenset({
    "repro.ntp.timestamps.unix_to_ntp",
    "unix_to_ntp",
})

#: Dotted targets for the 16.16 short-format encoder.
_SHORT_ENCODERS = frozenset({
    "repro.ntp.timestamps.encode_short",
    "encode_short",
})

#: The module that implements the fixed-point codec (PREC002-exempt).
_CODEC_HOME = ("repro", "ntp", "timestamps")

_CACHE_ATTR = "_precision_findings_cache"


@dataclass(frozen=True)
class Val:
    """Abstract value: interval + precision taints."""

    lo: float = -_INF
    hi: float = _INF
    is_float: bool = False
    tier: Optional[str] = None
    downscaled: bool = False
    raw_ntp: bool = False

    def join(self, other: "Val") -> "Val":
        """Interval hull of two values; flags and tiers merge pessimistically."""
        return Val(
            lo=min(self.lo, other.lo),
            hi=max(self.hi, other.hi),
            is_float=self.is_float or other.is_float,
            tier=_finer(self.tier, other.tier),
            downscaled=self.downscaled or other.downscaled,
            raw_ntp=self.raw_ntp or other.raw_ntp,
        )

    def widened(self, other: "Val") -> "Val":
        """Join, with any still-growing bound snapped to infinity."""
        joined = self.join(other)
        lo = self.lo if joined.lo >= self.lo else -_INF
        hi = self.hi if joined.hi <= self.hi else _INF
        return replace(joined, lo=lo, hi=hi)

    def beyond_exact_window(self) -> bool:
        """True when the range can exceed 2**53, where floats drop integers."""
        return self.hi > _EXACT_WINDOW or self.lo < -_EXACT_WINDOW


def _finer(a: Optional[str], b: Optional[str]) -> Optional[str]:
    if a is None:
        return b
    if b is None:
        return a
    return a if _TIERS.index(a) <= _TIERS.index(b) else b


def _coarsen(tier: Optional[str], factor: float) -> Optional[str]:
    """Tier after dividing by ``factor`` (1000 steps one tier up)."""
    if tier is None or factor < 1000:
        return tier
    steps = 0
    while factor >= 1000 and steps < len(_TIERS):
        factor /= 1000.0
        steps += 1
    index = min(_TIERS.index(tier) + steps, len(_TIERS) - 1)
    return _TIERS[index]


def _seed(name: str) -> Optional[Val]:
    """Abstract value a bare name declares through its suffix."""
    if name.endswith("_ntp"):
        return Val(lo=0.0, hi=float(2 ** 32), is_float=True, raw_ntp=True)
    unit = suffix_unit(name)
    if unit is None:
        return None
    bound = _TIER_RANGE[unit]
    # The int-ns / float-s convention: ns and us quantities are integer
    # counters, ms and s are floats.
    return Val(lo=-bound, hi=bound, is_float=unit in ("ms", "s"), tier=unit)


class _PrecisionAnalysis(Analysis):
    """Forward interval analysis; state: local name -> :class:`Val`."""

    def __init__(self, module: SourceModule, imports: ImportMap,
                 qualname: str) -> None:
        self.module = module
        self.imports = imports
        self.qualname = qualname
        self.in_codec_home = module.module == _CODEC_HOME
        self.sink: Optional[List[Finding]] = None  # set during replay

    # -- lattice ------------------------------------------------------------

    def initial(self) -> Dict[str, Val]:
        return {}

    def join(self, a: Dict[str, Val], b: Dict[str, Val]) -> Dict[str, Val]:
        return {
            var: a[var].join(b[var]) for var in a.keys() & b.keys()
        }

    def widen(self, old: Dict[str, Val], new: Dict[str, Val]) -> Dict[str, Val]:
        return {
            var: old[var].widened(new[var]) for var in old.keys() & new.keys()
        }

    # -- transfer ------------------------------------------------------------

    def transfer(self, item: object, state: Dict[str, Val]) -> Dict[str, Val]:
        if isinstance(item, (WithEnter, ForBind, ExceptBind, CaseBind)):
            new = dict(state)
            for name in _bound_in(item):
                new.pop(name, None)
            return new
        if isinstance(item, WithExit) or not isinstance(item, ast.stmt):
            return state
        new = dict(state)
        if isinstance(item, ast.Assign):
            value = self._eval(item.value, new)
            for target in item.targets:
                if isinstance(target, ast.Name):
                    self._check_store(target, value)
                    if value is not None:
                        new[target.id] = value
                    else:
                        new.pop(target.id, None)
                else:
                    self._eval_only(target, new)
        elif isinstance(item, ast.AnnAssign):
            value = (
                self._eval(item.value, new) if item.value is not None else None
            )
            if isinstance(item.target, ast.Name):
                self._check_store(item.target, value)
                if value is not None:
                    new[item.target.id] = value
                else:
                    new.pop(item.target.id, None)
        elif isinstance(item, ast.AugAssign):
            synthetic = ast.BinOp(
                left=_load_copy(item.target), op=item.op, right=item.value
            )
            ast.copy_location(synthetic, item)
            ast.fix_missing_locations(synthetic)
            value = self._eval(synthetic, new)
            if isinstance(item.target, ast.Name):
                self._check_store(item.target, value)
                if value is not None:
                    new[item.target.id] = value
                else:
                    new.pop(item.target.id, None)
        elif isinstance(item, ast.Delete):
            for target in item.targets:
                if isinstance(target, ast.Name):
                    new.pop(target.id, None)
        else:
            self._eval_only(item, new)
        return new

    # -- evaluation ----------------------------------------------------------

    def _eval_only(self, node: ast.AST, env: Dict[str, Val]) -> None:
        """Evaluate every expression under a statement for its reports."""
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._eval(child, env)
            elif not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                        ast.ClassDef, ast.Lambda)):
                self._eval_only(child, env)

    def _eval(self, node: ast.expr, env: Dict[str, Val]) -> Optional[Val]:
        if isinstance(node, ast.Constant):
            value = node.value
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                return None
            return Val(lo=float(value), hi=float(value),
                       is_float=isinstance(value, float))
        if isinstance(node, ast.Name):
            return env.get(node.id) or _seed(node.id)
        if isinstance(node, ast.Attribute):
            self._eval(node.value, env)
            return _seed(node.attr)
        if isinstance(node, ast.UnaryOp):
            operand = self._eval(node.operand, env)
            if operand is None or not isinstance(node.op, ast.USub):
                return None
            return replace(operand, lo=-operand.hi, hi=-operand.lo)
        if isinstance(node, ast.BinOp):
            return self._eval_binop(node, env)
        if isinstance(node, ast.Call):
            return self._eval_call(node, env)
        if isinstance(node, ast.Compare):
            return self._eval_compare(node, env)
        if isinstance(node, ast.IfExp):
            self._eval(node.test, env)
            body = self._eval(node.body, env)
            orelse = self._eval(node.orelse, env)
            if body is None or orelse is None:
                return body or orelse
            return body.join(orelse)
        if isinstance(node, ast.BoolOp):
            joined: Optional[Val] = None
            for value in node.values:
                got = self._eval(value, env)
                if got is not None:
                    joined = got if joined is None else joined.join(got)
            return joined
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            for element in node.elts:
                self._eval(element, env)
            return None
        if isinstance(node, ast.Dict):
            for part in (*node.keys, *node.values):
                if part is not None:
                    self._eval(part, env)
            return None
        if isinstance(node, ast.Subscript):
            self._eval(node.value, env)
            if isinstance(node.slice, ast.expr):
                self._eval(node.slice, env)
            return None
        if isinstance(node, (ast.Starred, ast.Await, ast.NamedExpr)):
            inner = getattr(node, "value", None)
            if isinstance(inner, ast.expr):
                return self._eval(inner, env)
        if isinstance(node, ast.JoinedStr):
            for part in node.values:
                if isinstance(part, ast.FormattedValue):
                    self._eval(part.value, env)
            return None
        return None

    def _eval_binop(self, node: ast.BinOp, env: Dict[str, Val]) -> Optional[Val]:
        left = self._eval(node.left, env)
        right = self._eval(node.right, env)
        op = node.op
        produces_float = (
            isinstance(op, ast.Div)
            or (left is not None and left.is_float)
            or (right is not None and right.is_float)
        )
        # PREC001: a wide ns/us int meets float arithmetic.
        if produces_float:
            for operand in (left, right):
                if (
                    operand is not None
                    and not operand.is_float
                    and operand.tier in ("ns", "us")
                    and operand.beyond_exact_window()
                ):
                    self._report(
                        node,
                        "PREC001",
                        f"_{operand.tier} integer enters float arithmetic "
                        f"with range beyond 2^53 (up to ~{operand.hi:.0e}); "
                        "doubles round away the low bits — do the "
                        "arithmetic in int and convert once at the end",
                    )
                    break
        if left is None or right is None:
            return None
        if isinstance(op, (ast.Add, ast.Sub)):
            if isinstance(op, ast.Add):
                lo, hi = left.lo + right.lo, left.hi + right.hi
            else:
                lo, hi = left.lo - right.hi, left.hi - right.lo
            return Val(
                lo=lo, hi=hi, is_float=produces_float,
                tier=_finer(left.tier, right.tier),
                downscaled=left.downscaled or right.downscaled,
                raw_ntp=left.raw_ntp or right.raw_ntp,
            )
        if isinstance(op, ast.Mult):
            corners = [left.lo * right.lo, left.lo * right.hi,
                       left.hi * right.lo, left.hi * right.hi]
            tier = _finer(left.tier, right.tier)
            # PREC004 (scale-back half): re-inflating an already
            # truncated value fabricates precision.
            for operand, factor in ((left, right), (right, left)):
                if (
                    operand.downscaled
                    and factor.lo == factor.hi
                    and factor.lo >= 1000
                ):
                    self._report(
                        node,
                        "PREC004",
                        "scaling a floor-divided time value back up "
                        "fabricates sub-tier digits that were already "
                        "truncated; keep the value in its original unit "
                        "until the final convert",
                    )
            return Val(
                lo=min(corners), hi=max(corners), is_float=produces_float,
                tier=tier,
                downscaled=left.downscaled or right.downscaled,
                raw_ntp=False,
            )
        if isinstance(op, (ast.Div, ast.FloorDiv)):
            divisor: Optional[float] = None
            if right.lo == right.hi and right.lo > 0:
                divisor = right.lo
            if divisor:
                lo, hi = left.lo / divisor, left.hi / divisor
            else:
                lo, hi = -_INF, _INF
            tier = _coarsen(left.tier, divisor or 1.0)
            downscaled = left.downscaled or (
                isinstance(op, ast.FloorDiv)
                and divisor is not None
                and divisor >= 1000
                and left.tier is not None
            )
            return Val(
                lo=lo, hi=hi,
                is_float=isinstance(op, ast.Div),
                tier=tier, downscaled=downscaled, raw_ntp=False,
            )
        if isinstance(op, ast.Mod):
            # Python's % with a positive divisor lands in [0, k).
            if right.lo == right.hi and right.lo > 0:
                return Val(
                    lo=0.0, hi=right.lo, is_float=produces_float,
                    tier=left.tier, downscaled=left.downscaled,
                )
            return Val(is_float=produces_float, tier=left.tier,
                       downscaled=left.downscaled)
        if isinstance(op, (ast.LShift, ast.RShift)):
            # Fixed-point shifts stay exact in int.  A right shift
            # shrinks magnitude by 2^k; a left shift grows it, so it
            # widens.
            bound = max(abs(left.lo), abs(left.hi))
            if isinstance(op, ast.RShift):
                if right.lo == right.hi and 0 <= right.lo < 64:
                    bound = bound / (2.0 ** right.lo)
                lo, hi = -bound, bound
            else:
                lo, hi = -_INF, _INF
            return Val(
                lo=lo, hi=hi, is_float=False, tier=left.tier,
                downscaled=left.downscaled, raw_ntp=left.raw_ntp,
            )
        return None

    def _eval_call(self, node: ast.Call, env: Dict[str, Val]) -> Optional[Val]:
        args = [self._eval(arg, env) for arg in node.args]
        for keyword in node.keywords:
            self._eval(keyword.value, env)
        func = node.func
        dotted = self.imports.resolve(func)
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None
        )
        if not isinstance(func, (ast.Name, ast.Attribute)):
            self._eval(func, env) if isinstance(func, ast.expr) else None
        if name == "float" and dotted in (None, "float") and args:
            operand = args[0]
            if (
                operand is not None
                and not operand.is_float
                and operand.tier in ("ns", "us")
                and operand.beyond_exact_window()
            ):
                self._report(
                    node,
                    "PREC001",
                    f"float() of a _{operand.tier} integer whose range "
                    "exceeds 2^53 rounds away the low bits; keep it in "
                    "int until the final convert",
                )
            if operand is not None:
                return replace(operand, is_float=True)
            return None
        if name == "int" and dotted in (None, "int") and args:
            operand = args[0]
            if operand is None:
                return Val(is_float=False)
            # int() of a tier-coarsening true divide truncates like //.
            downscaled = operand.downscaled or (
                operand.is_float and operand.tier is not None
                and _divides_by_unit(node.args[0])
            )
            return replace(operand, is_float=False, downscaled=downscaled)
        if name == "abs" and args and args[0] is not None:
            operand = args[0]
            hi = max(abs(operand.lo), abs(operand.hi))
            return replace(operand, lo=0.0, hi=hi)
        if (dotted in _SHORT_ENCODERS or name == "encode_short") and args:
            operand = args[0]
            if (
                not self.in_codec_home
                and operand is not None
                and operand.tier in ("ns", "us")
            ):
                self._report(
                    node,
                    "PREC002",
                    "16.16 short-format encoding has a ~15.26 µs "
                    "resolution floor; a µs/ns-tier value loses "
                    "everything below it — use the 64-bit timestamp "
                    "format for sub-millisecond quantities",
                )
            return None
        if dotted in _NTP_RAW_FUNCS or name == "unix_to_ntp":
            return Val(lo=0.0, hi=float(2 ** 32), is_float=True,
                       raw_ntp=True)
        return None

    def _eval_compare(self, node: ast.Compare,
                      env: Dict[str, Val]) -> Optional[Val]:
        values = [self._eval(node.left, env)]
        values += [self._eval(comp, env) for comp in node.comparators]
        for op, left, right in zip(node.ops, values, values[1:]):
            if (
                isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE))
                and left is not None and right is not None
                and left.raw_ntp and right.raw_ntp
            ):
                self._report(
                    node,
                    "PREC003",
                    "magnitude comparison of raw NTP-era timestamps is "
                    "rollover-unsafe (eras wrap in 2036); order via the "
                    "wrapped difference (sign of (a - b) mod 2^32) "
                    "instead",
                )
        return None

    def _check_store(self, target: ast.Name, value: Optional[Val]) -> None:
        """PREC004 (store half): finer-suffix store of a truncated value."""
        if value is None or not value.downscaled:
            return
        unit = suffix_unit(target.id)
        if unit is None or value.tier is None:
            return
        if _TIERS.index(unit) < _TIERS.index(value.tier):
            self._report(
                target,
                "PREC004",
                f"storing a value truncated to the {value.tier} tier "
                f"under an _{unit} suffix; the sub-{value.tier} digits "
                "were collapsed by an earlier division — convert once, "
                "at the end",
            )

    def _report(self, node: ast.AST, rule: str, message: str) -> None:
        if self.sink is None:
            return
        self.sink.append(Finding(
            rule=rule,
            path=self.module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=f"{message} (in '{self.qualname}')",
        ))


def _divides_by_unit(node: ast.expr) -> bool:
    """Whether the expression is a divide by a unit-sized constant."""
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Div)
        and isinstance(node.right, ast.Constant)
        and isinstance(node.right.value, (int, float))
        and node.right.value >= 1000
    )


def _bound_in(item: object) -> List[str]:
    node = item.node  # type: ignore[attr-defined]
    names: List[str] = []
    if isinstance(item, ForBind):
        targets: List[ast.AST] = [node.target]
    elif isinstance(item, WithEnter):
        targets = [
            withitem.optional_vars for withitem in node.items
            if withitem.optional_vars is not None
        ]
    elif isinstance(item, ExceptBind):
        return [node.name] if node.name else []
    elif isinstance(item, CaseBind):
        for child in ast.walk(node.pattern):
            if isinstance(child, ast.MatchAs) and child.name:
                names.append(child.name)
            elif isinstance(child, ast.MatchStar) and child.name:
                names.append(child.name)
            elif isinstance(child, ast.MatchMapping) and child.rest:
                names.append(child.rest)
        return names
    else:
        return names
    for target in targets:
        for child in ast.walk(target):
            if isinstance(child, ast.Name):
                names.append(child.id)
    return names


def _load_copy(target: ast.expr) -> ast.expr:
    copied = ast.copy_location(
        ast.parse(ast.unparse(target), mode="eval").body, target
    )
    ast.fix_missing_locations(copied)
    return copied


def precision_findings(module: SourceModule) -> List[Finding]:
    """All PREC findings for one module (computed once, shared)."""
    cached = getattr(module, _CACHE_ATTR, None)
    if cached is not None:
        return cached
    imports = ImportMap(module.tree)
    findings: List[Finding] = []
    for node, qualname, cfg in function_cfgs(module.tree):
        if cfg is None:
            continue  # generator/async: skipped gracefully
        analysis = _PrecisionAnalysis(module, imports, qualname)
        state_in = solve_forward(cfg, analysis)
        analysis.sink = findings
        # Replay once at the fixpoint so each site reports exactly once.
        for _block, _item, _state in each_item_state(cfg, analysis, state_in):
            pass
        analysis.sink = None
    # Replay evaluates some expressions through both the item walk and
    # nested statements; dedupe on the anchor.
    unique: Dict[Tuple[str, str, int, int, str], Finding] = {}
    for finding in findings:
        key = (finding.rule, finding.path, finding.line, finding.col,
               finding.message)
        unique.setdefault(key, finding)
    out = sorted(unique.values(),
                 key=lambda f: (f.line, f.col, f.rule, f.message))
    setattr(module, _CACHE_ATTR, out)
    return out


class _PrecisionRule(Rule):
    """Base: filter the shared precision analysis down to one rule id."""

    covers_tests = True

    def run(self) -> List[Finding]:
        return [
            f for f in precision_findings(self.module)
            if f.rule == self.rule_id
        ]


@register
class FloatWindowRule(_PrecisionRule):
    rule_id = "PREC001"
    summary = (
        "an _ns/_us integer with range beyond the 2^53 float-exact "
        "window must not enter float arithmetic; do integer arithmetic "
        "and convert once at the end"
    )
    rationale = (
        "Doubles represent integers exactly only up to 2^53 (~104 days "
        "in ns). An _ns counter beyond that window loses low bits the "
        "moment it touches float arithmetic — a silent sub-µs error "
        "that defeats the µs-tier sync targets. The check is "
        "value-range based: a value provably bounded below 2^53 "
        "(e.g. x_ns % 1000) is fine."
    )
    example = "elapsed_s = float(t_ns) / 1e9   # t_ns can exceed 2^53"
    fix_hint = (
        "Stay in int (//, %) for the arithmetic and convert the small "
        "remainder or final result once at the end."
    )


@register
class ShortFormatRule(_PrecisionRule):
    rule_id = "PREC002"
    summary = (
        "the NTP 16.16 short format floors resolution at ~15.26 µs; "
        "µs/ns-tier values must use the 64-bit timestamp format "
        "(codec home repro.ntp.timestamps is exempt)"
    )
    rationale = (
        "encode_short() packs a value into 16.16 fixed point whose "
        "quantum is 2^-16 s ≈ 15.26 µs; everything below that "
        "truncates. Routing a µs/ns-tier quantity through it destroys "
        "exactly the precision the µs scenario tier (ROADMAP #4c) is "
        "supposed to measure."
    )
    example = "wire = encode_short(delay_us)   # sub-15µs digits truncated"
    fix_hint = (
        "Use the 64-bit timestamp format (encode_timestamp) for "
        "sub-millisecond quantities; keep 16.16 for coarse dispersion "
        "fields."
    )


@register
class EraCompareRule(_PrecisionRule):
    rule_id = "PREC003"
    summary = (
        "raw NTP-era timestamps must not be ordered by magnitude "
        "comparison (eras wrap in 2036); use the wrapped difference"
    )
    rationale = (
        "NTP's 32-bit seconds field wraps in February 2036; two "
        "timestamps straddling the era boundary compare backwards "
        "under <. RFC 4330 orders them by the sign of the wrapped "
        "difference, which stays correct across the rollover."
    )
    example = (
        "a_ntp = unix_to_ntp(a)\n"
        "b_ntp = unix_to_ntp(b)\n"
        "if a_ntp < b_ntp:   # wrong across the 2036 era boundary\n"
        "    ..."
    )
    fix_hint = (
        "Order by the wrapped difference: treat ((a - b) mod 2^32) as "
        "a signed quantity and test its sign."
    )


@register
class DownscaleRule(_PrecisionRule):
    rule_id = "PREC004"
    summary = (
        "a division chain that truncates a time value to a coarser "
        "tier must not scale it back up or store it under a finer "
        "suffix; convert once, at the end"
    )
    rationale = (
        "t_ns // 1000 discards the sub-µs digits permanently; "
        "multiplying the result back by 1000 (or storing it under an "
        "_ns suffix) fabricates precision that is gone. The dataflow "
        "tracks the truncation through intermediate variables, so "
        "splitting the chain across lines does not hide it."
    )
    example = (
        "t_us = t_ns // 1000\n"
        "back_ns = t_us * 1000   # sub-µs digits are already gone"
    )
    fix_hint = (
        "Keep the value in its original unit through the computation "
        "and convert a single time, at the final use."
    )
