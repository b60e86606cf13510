"""The one reader and the one writer of JSON.

``load`` parses every JSON input document: rules, corpus spec, weights config
and snapshot manifest. Each passes its own error class and message prefix,
``where``.

``dumps`` writes every JSON output: each command's ``--format json`` payload,
the report's among them, and a snapshot's ``manifest.json``. Its text is
exactly ``json.dumps(value, indent=2)``. The standard library writes any
indented JSON with its pure-Python encoder, since its C encoder runs only
with ``indent=None``. So ``dumps`` hands the C encoder whole containers, with
an item separator that ends in a newline and the indent of the items: one
``JSONEncoder`` per depth. A dict or list whose values are all scalars is one
call, and ``dumps`` adds the line breaks after its opener and before its
closer. A list of such dicts, the shape of a table's rows, is one call too.
A container that holds containers is one call with a placeholder in place of
each of them, and only those few are walked in Python.

Each layout step rests on one fact: an ASCII-escaped JSON string holds no raw
newline, so every newline in the C encoder's text is one of its separators.
A container is flat only if each of its values is exactly a str, int, float,
bool or None, so no call's container holds a dict or list, nor a subclass of
one, which the C encoder would lay out with that call's separators.
"""

from __future__ import annotations

import functools
import json
from itertools import chain
from typing import Callable, Iterable

__all__ = ["dumps", "known_keys", "load", "typed"]

_NAMES = {dict: "object", list: "array", str: "string", int: "integer",
          float: "number", bool: "boolean", type(None): "null"}
_SCALARS = frozenset({str, int, float, bool, type(None)})
_CONTAINERS = (dict, list, tuple)


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


def known_keys(mapping: dict, fields: Iterable, error: type[Exception], where: str) -> None:
    """Raise ``error`` naming the keys of ``mapping`` that are not ``fields``."""
    unknown = set(mapping) - set(fields)
    if unknown:
        raise error(f"{where}: unknown keys {sorted(unknown, key=str)}")


def dumps(value: object) -> str:
    """``json.dumps(value, indent=2)``, written by the C encoder. Keys are
    coerced as ``json.dumps`` coerces them; a circular value raises
    RecursionError."""
    if not isinstance(value, _CONTAINERS):
        return _encoder(0)(value)
    out: list[str] = []
    _write(value, 0, out)
    return "".join(out)


@functools.cache
def _encoder(depth: int) -> Callable[[object], str]:
    """The C encoder that puts each item of a container on its own line, at the
    indent of depth ``depth + 1``."""
    return json.JSONEncoder(separators=(",\n" + "  " * (depth + 1), ": "),
                            check_circular=False).encode


def _write(value: dict | list | tuple, depth: int, out: list[str]) -> None:
    """Append the text of a container whose opener is at depth ``depth``."""
    if not value:
        out.append("{}" if isinstance(value, dict) else "[]")
        return
    values = value.values() if isinstance(value, dict) else value
    indent = "\n" + "  " * depth
    if _SCALARS.issuperset(map(type, values)):
        text = _encoder(depth)(value)
        out += text[0], indent, "  ", text[1:-1], indent, text[-1]
        return
    if (not isinstance(value, dict) and set(map(type, value)) == {dict} and all(value)
            and _SCALARS.issuperset(map(type, chain.from_iterable(map(dict.values, value))))):
        # Rows: one call lays out every row's items at depth + 2. A "}" before
        # a separator can only close a row, so each row's braces then go on
        # lines of their own at depth + 1.
        row_indent = "\n" + "  " * (depth + 1)
        text = _encoder(depth + 1)(value)[2:-2]
        out += ("[", row_indent, "{", row_indent, "  ",
                text.replace("}," + row_indent + "  {",
                             row_indent + "}," + row_indent + "{" + row_indent + "  "),
                row_indent, "}", indent, "]")
        return
    nested = [isinstance(item, _CONTAINERS) for item in values]
    if isinstance(value, dict):
        shallow = {key: 0 if inner else item
                   for (key, item), inner in zip(value.items(), nested)}
    else:
        shallow = [0 if inner else item for item, inner in zip(value, nested)]
    text = _encoder(depth)(shallow)
    separator = "," + indent + "  "
    out += text[0], indent, "  "
    for i, (part, inner, item) in enumerate(zip(text[1:-1].split(separator), nested, values)):
        if i:
            out.append(separator)
        if inner:
            out.append(part[:-1])  # the placeholder's "0"
            _write(item, depth + 1, out)
        else:
            out.append(part)
    out += indent, text[-1]
