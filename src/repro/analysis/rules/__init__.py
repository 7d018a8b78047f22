"""Rule registry.

Per-file rules register themselves with the :func:`register` decorator
at import time; whole-program rules use :func:`register_project`.
:func:`all_rules` / :func:`all_project_rules` import every rule module
exactly once and return the id -> class mappings the engine dispatches
from.
"""

from __future__ import annotations

from typing import Dict, Type, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.analysis.engine import ProjectRule, Rule

_REGISTRY: Dict[str, "Type[Rule]"] = {}
_PROJECT_REGISTRY: Dict[str, "Type[ProjectRule]"] = {}
_LOADED = False


def register(rule_cls):
    """Class decorator adding a per-file rule to the registry."""
    rule_id = rule_cls.rule_id
    if not rule_id:
        raise ValueError(f"{rule_cls.__name__} has no rule_id")
    if rule_id in _REGISTRY and _REGISTRY[rule_id] is not rule_cls:
        raise ValueError(f"duplicate rule id {rule_id}")
    _REGISTRY[rule_id] = rule_cls
    return rule_cls


def register_project(rule_cls):
    """Class decorator adding a whole-program rule to the registry."""
    rule_id = rule_cls.rule_id
    if not rule_id:
        raise ValueError(f"{rule_cls.__name__} has no rule_id")
    if rule_id in _REGISTRY:
        raise ValueError(f"rule id {rule_id} already used by a per-file rule")
    if rule_id in _PROJECT_REGISTRY and _PROJECT_REGISTRY[rule_id] is not rule_cls:
        raise ValueError(f"duplicate rule id {rule_id}")
    _PROJECT_REGISTRY[rule_id] = rule_cls
    return rule_cls


def _load() -> None:
    global _LOADED
    if not _LOADED:
        # Imported for their registration side effect only.
        from repro.analysis.rules import correctness  # noqa: F401  # repro: noqa[COR004]
        from repro.analysis.rules import determinism  # noqa: F401  # repro: noqa[COR004]
        from repro.analysis.rules import observability  # noqa: F401  # repro: noqa[COR004]
        from repro.analysis.rules import robustness  # noqa: F401  # repro: noqa[COR004]
        from repro.analysis.rules import units  # noqa: F401  # repro: noqa[COR004]
        from repro.analysis.rules import resources  # noqa: F401  # repro: noqa[COR004]
        from repro.analysis.flow import rules as flow_rules  # noqa: F401  # repro: noqa[COR004]

        _LOADED = True


def all_rules() -> Dict[str, "Type[Rule]"]:
    """Id -> class for every shipped per-file rule."""
    _load()
    return dict(_REGISTRY)


def all_project_rules() -> Dict[str, "Type[ProjectRule]"]:
    """Id -> class for every shipped whole-program rule."""
    _load()
    return dict(_PROJECT_REGISTRY)


__all__ = ["register", "register_project", "all_rules", "all_project_rules"]
