"""Helpers shared by the rule implementations.

Two pieces of shared machinery live here:

* :class:`ImportMap` — resolves a ``Name``/``Attribute`` call target to
  its canonical dotted path (``np.random.default_rng`` becomes
  ``numpy.random.default_rng``) by tracking the module's imports.
  Rules never build one: each module's single map is
  ``SourceModule.imports``, shared with the flow summary.
* unit inference — the codebase names every quantity of time with an
  explicit unit suffix (``period_s``, ``rmse_ms``, ``correction_ns``);
  :func:`suffix_unit` and :func:`expr_unit` recover the unit from a
  name or expression so the UNIT rules can compare them.
"""

from __future__ import annotations

import ast
from typing import Dict, Optional, Set

#: Recognised time-unit suffixes (``skew_s_per_s`` ends in ``_s`` and is
#: therefore read as seconds, which matches the convention: the trailing
#: suffix states the unit of the stored value).
TIME_UNIT_SUFFIXES = ("s", "ms", "us", "ns")

#: Functions in :mod:`repro.ntp.timestamps` that return float seconds.
NTP_SECONDS_FUNCS = frozenset(
    {"decode_timestamp", "decode_short", "unix_to_ntp", "ntp_to_unix"}
)

#: Functions in :mod:`repro.ntp.timestamps` that return wire-format
#: fixed-point *bytes* (64-bit timestamp / 16.16 short format).
NTP_WIRE_FUNCS = frozenset({"encode_timestamp", "encode_short"})


class ImportMap:
    """Local name -> canonical dotted module path, from a module's imports."""

    def __init__(self, tree: ast.AST) -> None:
        self.aliases: Dict[str, str] = {}
        self.modules: Set[str] = set()   # every module imported or imported from
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.modules.add(alias.name)
                    if alias.asname:
                        self.aliases[alias.asname] = alias.name
                    else:
                        root = alias.name.split(".", 1)[0]
                        self.aliases[root] = root
            elif isinstance(node, ast.ImportFrom):
                if node.module is None or node.level:
                    continue  # relative imports never hit stdlib/numpy
                self.modules.add(node.module)
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.aliases[local] = f"{node.module}.{alias.name}"

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Canonical dotted path of an expression, or None if untracked."""
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        canonical = self.aliases.get(node.id)
        if canonical is None:
            return None
        parts.append(canonical)
        return ".".join(reversed(parts))


def suffix_unit(name: str) -> Optional[str]:
    """The time unit a variable name declares via its suffix, if any."""
    if "_" not in name:
        return None
    suffix = name.lower().rsplit("_", 1)[1]
    return suffix if suffix in TIME_UNIT_SUFFIXES else None


def node_name(node: ast.AST) -> Optional[str]:
    """The identifier a Name/Attribute node refers to, if any."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def call_func_name(node: ast.AST) -> Optional[str]:
    """The simple function name of a Call node, if any."""
    if isinstance(node, ast.Call):
        return node_name(node.func)
    return None


def expr_unit(node: ast.AST) -> Optional[str]:
    """Unit of an expression judged by its variable-name suffix alone."""
    name = node_name(node)
    if name is None:
        return None
    return suffix_unit(name)


def is_number_constant(node: ast.AST) -> bool:
    """Whether the node is a literal int/float (bools excluded)."""
    value = getattr(node, "value", None) if isinstance(node, ast.Constant) else None
    return isinstance(value, (int, float)) and not isinstance(value, bool)
