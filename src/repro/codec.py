"""One typed JSON codec for every dataclass file format.

:func:`encode` turns a dataclass into JSON-ready data and :func:`decode`
rebuilds one from its field types (``dataclasses.fields`` plus
``typing.get_type_hints``, resolved once per class).  Scenario specs,
fault schedules, SLO specs, archived MNTP reports and tuner trace
entries all go through this pair, so a file is checked the same way
wherever it is read:

* ``bool`` takes only ``true``/``false`` (not ``0``, not ``"false"``);
* ``int`` takes only integers (not a boolean, not ``10.5``);
* ``float`` takes only finite numbers; an integer becomes a float;
* ``str``, ``Optional[X]``, ``List[X]``, ``Tuple[X, ...]``,
  ``Tuple[X, Y]`` (exactly that many items),
  ``Dict[str, X]``, nested dataclasses and enums (by value);
* ``Any`` takes any JSON value as is;
* ``field(metadata={"json": "t"})`` stores a field under another key;
* a base class in :data:`TAGGED_UNIONS` decodes to the variant its tag
  names, and a variant encodes with its tag.

An unknown key, a missing required key or a wrong type raises
``ValueError`` naming the JSON path, e.g. ``spec.mntp.query_timeout
must be a finite number, got '2'``.  Range and ordering checks stay in
each class's ``__post_init__``; a ``ValueError`` raised there comes
back prefixed with the object's path.  The module imports nothing else
from the package.
"""

from __future__ import annotations

import dataclasses
import math
import typing
from enum import Enum
from typing import Any, Dict, List, Tuple

#: Tagged unions: base class -> (tag key, {tag value: variant class}).
#: The module defining a union registers it here.
TAGGED_UNIONS: Dict[type, Tuple[str, Dict[str, type]]] = {}

#: Per-class field table: (attribute, JSON key, resolved type, required).
_FIELDS: Dict[type, List[Tuple[str, str, Any, bool]]] = {}


def _fields(cls: type) -> List[Tuple[str, str, Any, bool]]:
    """The field table of dataclass ``cls``, built on first use."""
    table = _FIELDS.get(cls)
    if table is None:
        hints = typing.get_type_hints(cls)
        table = [
            (
                f.name,
                f.metadata.get("json", f.name),
                hints[f.name],
                f.default is dataclasses.MISSING
                and f.default_factory is dataclasses.MISSING,
            )
            for f in dataclasses.fields(cls)
            if f.init
        ]
        _FIELDS[cls] = table
    return table


def encode(obj: Any) -> Any:
    """The JSON-ready form of ``obj``.

    A dataclass becomes an object keyed by each field's JSON key, in
    declaration order (a tagged-union variant's tag first); an enum
    becomes its value; tuples become lists.
    """
    if dataclasses.is_dataclass(obj):
        out: Dict[str, Any] = {}
        for tag, variants in TAGGED_UNIONS.values():
            for name, cls in variants.items():
                if type(obj) is cls:
                    out[tag] = name
        for name, key, _tp, _required in _fields(type(obj)):
            out[key] = encode(getattr(obj, name))
        return out
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, (list, tuple)):
        return [encode(item) for item in obj]
    if isinstance(obj, dict):
        return {key: encode(value) for key, value in obj.items()}
    return obj


def _mapping(data: Any, where: str) -> Dict[str, Any]:
    """``data`` if it is a JSON object; raise with ``where`` otherwise."""
    if not isinstance(data, dict):
        raise ValueError(
            f"{where}: must be a JSON object, got {type(data).__name__}"
        )
    return data


def _decode_dataclass(cls: type, data: Dict[str, Any], where: str) -> Any:
    """Build ``cls`` from its JSON object; ``where`` prefixes errors."""
    table = _fields(cls)
    known = [key for _name, key, _tp, _required in table]
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ValueError(
            f"{where}: unknown keys {unknown}; known keys are {sorted(known)}"
        )
    missing = [key for _name, key, _tp, required in table
               if required and key not in data]
    if missing:
        raise ValueError(f"{where}: missing keys {missing}")
    kwargs = {
        name: decode(tp, data[key], f"{where}.{key}")
        for name, key, tp, _required in table
        if key in data
    }
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc


def decode(tp: Any, data: Any, where: str) -> Any:
    """Rebuild a value of type ``tp`` from JSON ``data``.

    Args:
        tp: The target type (a dataclass, or any type the module
            docstring lists).
        data: Parsed JSON.
        where: JSON path of ``data``, used in error messages.

    Raises:
        ValueError: On an unknown or missing key, a wrong type, a
            non-finite number, an unknown enum value or union tag, or a
            value ``__post_init__`` rejects.
    """
    if tp is Any:
        return data
    origin = typing.get_origin(tp)
    if origin is typing.Union:  # Optional[X]
        if data is None:
            return None
        (tp,) = [arg for arg in typing.get_args(tp) if arg is not type(None)]
        origin = typing.get_origin(tp)
    if origin is list or origin is tuple:
        if not isinstance(data, list):
            raise ValueError(
                f"{where}: must be a list, got {type(data).__name__}"
            )
        args = typing.get_args(tp)
        if origin is tuple and args[-1] is not Ellipsis:
            if len(data) != len(args):
                raise ValueError(
                    f"{where}: must have {len(args)} items, got {len(data)}"
                )
            item_tps = args
        else:
            item_tps = (args[0],) * len(data)
        items = [decode(item_tp, item, f"{where}[{index}]")
                 for index, (item_tp, item) in enumerate(zip(item_tps, data))]
        return items if origin is list else tuple(items)
    if origin is dict:
        value_tp = typing.get_args(tp)[1]
        mapping = _mapping(data, where)
        if value_tp is Any:
            return dict(mapping)
        return {key: decode(value_tp, value, f"{where}[{key!r}]")
                for key, value in mapping.items()}
    if tp in TAGGED_UNIONS:
        tag, variants = TAGGED_UNIONS[tp]
        body = dict(_mapping(data, where))
        name = body.pop(tag, None)
        if name not in variants:
            raise ValueError(
                f"{where}.{tag} must be one of {sorted(variants)}, "
                f"got {name!r}"
            )
        return _decode_dataclass(variants[name], body, where)
    if dataclasses.is_dataclass(tp):
        return _decode_dataclass(tp, _mapping(data, where), where)
    if isinstance(tp, type) and issubclass(tp, Enum):
        try:
            return tp(data)
        except (TypeError, ValueError):
            values = sorted(member.value for member in tp)
            raise ValueError(
                f"{where} must be one of {values}, got {data!r}"
            ) from None
    if tp is bool:
        if type(data) is bool:
            return data
        raise ValueError(f"{where} must be a boolean, got {data!r}")
    if tp is int:
        if type(data) is int:
            return data
        raise ValueError(f"{where} must be an integer, got {data!r}")
    if tp is float:
        try:
            if type(data) in (int, float) and math.isfinite(data):
                return float(data)
        except OverflowError:  # an integer beyond float range
            pass
        raise ValueError(f"{where} must be a finite number, got {data!r}")
    if tp is str:
        if type(data) is str:
            return data
        raise ValueError(f"{where} must be a string, got {data!r}")
    raise TypeError(f"{where}: the codec has no rule for type {tp!r}")
