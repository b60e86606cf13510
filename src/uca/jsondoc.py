"""The one reader of JSON input documents: rules, corpus spec, weights config and
snapshot manifest. Each passes its own error class and message prefix, ``where``."""

from __future__ import annotations

import json
from typing import Callable

__all__ = ["load", "typed"]

_NAMES = {dict: "object", list: "array", str: "string", int: "integer",
          float: "number", bool: "boolean", type(None): "null"}


def load(document: str | bytes, kind: type, error: type[Exception], where: str):
    """The parsed document, whose top level must be a JSON ``kind``."""
    try:
        data = json.loads(document)
    except (ValueError, RecursionError) as exc:  # malformed, too deep or undecodable
        raise error(f"{where}: invalid JSON: {exc}") from None
    return typed(data, kind, error, where)


def typed(value: object, kind: type | Callable, error: type[Exception], where: str):
    """``value`` if it is a JSON ``kind``: a boolean is only a ``bool``, no ``int``
    and no ``float``, and a ``float`` is any other number, returned as a float. Any
    other ``kind``, such as an Enum, reads a JSON string; a ValueError of it raises
    ``error``."""
    json_kind = kind if kind in _NAMES else str
    if isinstance(value, bool) is not (kind is bool) or not isinstance(
            value, (int, float) if kind is float else json_kind):
        raise error(f"{where}: expected a JSON {_NAMES[json_kind]},"
                    f" got {_NAMES.get(type(value), type(value).__name__)}")
    try:
        return value if kind in (str, int, bool, list, dict) else kind(value)
    except (OverflowError, ValueError) as exc:  # an int past a float, or unreadable text
        raise error(f"{where}: {exc}") from None
