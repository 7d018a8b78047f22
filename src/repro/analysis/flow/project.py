"""The whole-program model: summaries stitched into a call graph.

A :class:`Project` is built from the :class:`ModuleSummary` objects
phase one kept and provides the three derived facts the
interprocedural rules consume:

* **call resolution** — a summary-level resolution key plus the calling
  module resolves to a concrete project function (alias-aware dotted
  paths, names bound by another module's imports,
  ``self.`` method dispatch through recorded base classes, and a
  unique-name fallback for attribute calls on objects of unknown type);
* **return units** — every function's time unit, from its name suffix
  or propagated from what it returns (a fixpoint over the call graph,
  so a chain of ``return helper()`` hops converges);
* **transitive effects** — for every function, the set of wall-clock /
  global-RNG calls reachable from it, each with a witness chain for
  diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set

from repro.analysis.flow.summary import (
    MODULE_BODY,
    ClassInfo,
    FunctionInfo,
    ModuleSummary,
)

#: Resolution recursion bound (re-export chains, base-class walks).
_MAX_HOPS = 8


@dataclass
class FunctionEntry:
    """A project function: summary info plus its defining module."""

    info: FunctionInfo
    module: ModuleSummary
    class_name: Optional[str] = None

    @property
    def full(self) -> str:
        return f"{self.module.dotted()}.{self.info.qualname}"

    @property
    def display(self) -> str:
        """Human-facing name: module for module bodies, else qualname."""
        if self.info.qualname == MODULE_BODY:
            return f"{self.module.dotted()} (module body)"
        return f"{self.module.dotted()}.{self.info.qualname}"

    def endpoint(self) -> str:
        """Endpoint string for cross-file findings: ``path::qualname``."""
        return f"{self.module.path}::{self.info.qualname}"


@dataclass
class ClassEntry:
    """A project class and where it lives."""

    info: ClassInfo
    module: ModuleSummary

    @property
    def full(self) -> str:
        return f"{self.module.dotted()}.{self.info.name}"


@dataclass
class EffectPath:
    """One transitive effect: what is reached and through which edge."""

    kind: str                      # wall-clock / stdlib-random / numpy-global-rng
    dotted: str                    # e.g. "time.sleep"
    via: Optional[str] = None      # full name of the callee that carries it
                                   # (None when the effect is direct)
    direct_in: str = ""            # full name of the function making the call


class Project:
    """Summaries indexed and closed over the call graph."""

    def __init__(
        self,
        summaries: Sequence[ModuleSummary],
        test_references: Optional[Set[str]] = None,
    ) -> None:
        self.summaries = list(summaries)
        self.test_references: FrozenSet[str] = frozenset(test_references or ())
        self.modules: Dict[str, ModuleSummary] = {
            s.dotted(): s for s in self.summaries
        }
        self.functions: Dict[str, FunctionEntry] = {}
        self.classes: Dict[str, ClassEntry] = {}
        self._by_name: Dict[str, List[str]] = {}
        for summary in self.summaries:
            for cls in summary.classes:
                entry = ClassEntry(info=cls, module=summary)
                self.classes[entry.full] = entry
            for fn in summary.functions:
                entry = FunctionEntry(info=fn, module=summary)
                if fn.is_method:
                    entry.class_name = fn.qualname.split(".", 1)[0]
                self.functions[entry.full] = entry
                if fn.qualname != MODULE_BODY:
                    self._by_name.setdefault(fn.name, []).append(entry.full)
        self.return_units: Dict[str, Optional[str]] = {}
        self.effects: Dict[str, Dict[str, EffectPath]] = {}
        self._infer_return_units()
        self._propagate_effects()

    # -- resolution --------------------------------------------------------

    def resolve(
        self, ref: str, from_module: str, _hops: int = 0
    ) -> Optional[FunctionEntry]:
        """Resolve a summary resolution key to a project function.

        Class references resolve to the constructor: a synthetic entry
        whose parameter units are the recorded ``__init__`` (or
        dataclass field) signature.
        """
        if _hops > _MAX_HOPS:
            return None
        kind, _, name = ref.partition(":")
        if kind == "d":
            return self._resolve_dotted(name, _hops)
        if kind == "l":
            return self._resolve_in_module(from_module, name, _hops)
        if kind == "s":
            class_name, _, method = name.partition(".")
            return self._resolve_method(from_module, class_name, method, _hops)
        if kind == "a":
            candidates = self._by_name.get(name, [])
            if len(candidates) == 1:
                return self.functions[candidates[0]]
            return None
        return None

    def _resolve_dotted(self, dotted: str, hops: int) -> Optional[FunctionEntry]:
        entry = self.functions.get(dotted)
        if entry is not None:
            return entry
        cls = self.classes.get(dotted)
        if cls is not None:
            return self._ctor_entry(cls)
        # Longest module prefix, then resolve the remainder inside it
        # (covers names bound by that module's imports).
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            module = ".".join(parts[:cut])
            if module in self.modules:
                remainder = parts[cut:]
                if len(remainder) == 1:
                    return self._resolve_in_module(
                        module, remainder[0], hops + 1
                    )
                if len(remainder) == 2:
                    return self._resolve_method(
                        module, remainder[0], remainder[1], hops + 1
                    )
                return None
        return None

    def _resolve_in_module(
        self, module: str, name: str, hops: int
    ) -> Optional[FunctionEntry]:
        if hops > _MAX_HOPS or module not in self.modules:
            return None
        entry = self.functions.get(f"{module}.{name}")
        if entry is not None and not entry.info.is_method:
            return entry
        cls = self.classes.get(f"{module}.{name}")
        if cls is not None:
            return self._ctor_entry(cls)
        target = self.modules[module].import_bindings.get(name)
        if target is not None:
            return self._resolve_dotted(target, hops + 1)
        return None

    def _resolve_method(
        self, module: str, class_name: str, method: str, hops: int
    ) -> Optional[FunctionEntry]:
        if hops > _MAX_HOPS:
            return None
        cls = self.classes.get(f"{module}.{class_name}")
        if cls is None:
            # The class may itself be a name the module imports.
            binding = self.modules.get(module)
            target = binding.import_bindings.get(class_name) if binding else None
            if target is not None:
                cls = self.classes.get(target)
        if cls is None:
            return None
        return self._method_on(cls, method, hops)

    def _method_on(
        self, cls: ClassEntry, method: str, hops: int
    ) -> Optional[FunctionEntry]:
        if hops > _MAX_HOPS:
            return None
        if method in cls.info.methods:
            return self.functions.get(
                f"{cls.module.dotted()}.{cls.info.name}.{method}"
            )
        for base_ref in cls.info.bases:
            base = self._resolve_class_ref(base_ref, cls.module.dotted(), hops)
            if base is not None:
                found = self._method_on(base, method, hops + 1)
                if found is not None:
                    return found
        return None

    def _resolve_class_ref(
        self, ref: str, from_module: str, hops: int
    ) -> Optional[ClassEntry]:
        kind, _, name = ref.partition(":")
        if kind == "d":
            cls = self.classes.get(name)
            if cls is not None:
                return cls
            parts = name.split(".")
            for cut in range(len(parts) - 1, 0, -1):
                module = ".".join(parts[:cut])
                if module in self.modules and len(parts) - cut == 1:
                    return self._class_in_module(module, parts[-1], hops)
            return None
        if kind == "l":
            return self._class_in_module(from_module, name, hops)
        return None

    def _class_in_module(
        self, module: str, name: str, hops: int
    ) -> Optional[ClassEntry]:
        if hops > _MAX_HOPS or module not in self.modules:
            return None
        cls = self.classes.get(f"{module}.{name}")
        if cls is not None:
            return cls
        target = self.modules[module].import_bindings.get(name)
        if target is not None:
            return self._resolve_class_ref(f"d:{target}", module, hops + 1)
        return None

    def _ctor_entry(self, cls: ClassEntry) -> FunctionEntry:
        """The function entry standing for ``Class(...)``.

        When the class defines ``__init__`` its real entry is returned
        (parameters already exclude ``self``, and its effects live in
        the effect tables).  Dataclasses get a synthetic entry carrying
        the field signature.
        """
        init = self.functions.get(
            f"{cls.module.dotted()}.{cls.info.name}.__init__"
        )
        if init is not None:
            return init
        info = FunctionInfo(
            qualname=cls.info.name, name=cls.info.name,
            lineno=cls.info.lineno, col=1,
            pos_params=list(cls.info.ctor_pos_params),
            kw_units=dict(cls.info.ctor_kw_units),
            is_public=not cls.info.name.startswith("_"),
        )
        return FunctionEntry(info=info, module=cls.module)

    # -- return-unit inference ---------------------------------------------

    def _infer_return_units(self) -> None:
        units: Dict[str, Optional[str]] = {}
        for full, entry in self.functions.items():
            units[full] = entry.info.name_unit
        changed = True
        passes = 0
        while changed and passes < 20:
            changed = False
            passes += 1
            for full, entry in self.functions.items():
                if units[full] is not None or not entry.info.return_descs:
                    continue
                inferred = self._returns_unit(entry, units)
                if inferred is not None:
                    units[full] = inferred
                    changed = True
        self.return_units = units

    def _returns_unit(
        self, entry: FunctionEntry, units: Dict[str, Optional[str]]
    ) -> Optional[str]:
        seen: Set[str] = set()
        for desc in entry.info.return_descs:
            if desc.startswith("u:"):
                seen.add(desc[2:])
            elif desc.startswith("c:"):
                callee = self.resolve(desc[2:], entry.module.dotted())
                unit = units.get(callee.full) if callee else None
                if unit is None:
                    return None
                seen.add(unit)
            else:
                return None
        if len(seen) == 1:
            return next(iter(seen))
        return None

    def call_return_unit(
        self, ref: Optional[str], from_module: str
    ) -> Optional[str]:
        """Return unit of the function a resolution key names, if known."""
        if ref is None:
            return None
        callee = self.resolve(ref, from_module)
        if callee is None:
            return None
        return self.return_units.get(callee.full)

    # -- effect propagation ------------------------------------------------

    def _propagate_effects(self) -> None:
        effects: Dict[str, Dict[str, EffectPath]] = {}
        for full, entry in self.functions.items():
            table: Dict[str, EffectPath] = {}
            for effect in entry.info.effects:
                if effect.suppressed:
                    continue
                table[effect.dotted] = EffectPath(
                    kind=effect.kind, dotted=effect.dotted,
                    via=None, direct_in=full,
                )
            effects[full] = table
        # Resolve each function's call edges once, then iterate to fixpoint.
        edges: Dict[str, List[str]] = {}
        for full, entry in self.functions.items():
            targets: List[str] = []
            for call in entry.info.calls:
                callee = self.resolve(call.ref, entry.module.dotted())
                if callee is not None and callee.full in effects:
                    targets.append(callee.full)
            edges[full] = targets
        changed = True
        while changed:
            changed = False
            for full, targets in edges.items():
                table = effects[full]
                for target in targets:
                    for dotted, path in effects[target].items():
                        if dotted not in table:
                            table[dotted] = EffectPath(
                                kind=path.kind, dotted=dotted,
                                via=target, direct_in=path.direct_in,
                            )
                            changed = True
        self.effects = effects

    def effect_chain(self, full: str, dotted: str) -> List[str]:
        """Witness chain of full names from ``full`` to the direct call."""
        chain = [full]
        current = full
        for _ in range(len(self.functions) + 1):
            path = self.effects.get(current, {}).get(dotted)
            if path is None or path.via is None:
                break
            chain.append(path.via)
            current = path.via
        return chain

    # -- references (COR005) -----------------------------------------------

    def referenced_names(self) -> FrozenSet[str]:
        """Names referenced anywhere in the analysed modules or tests."""
        names: Set[str] = set(self.test_references)
        for summary in self.summaries:
            names |= summary.referenced
        return frozenset(names)
