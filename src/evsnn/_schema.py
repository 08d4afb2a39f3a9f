"""One reader for every JSON object the program takes in.

``checked`` holds an object against the signature of the callable it feeds:
its keys are the parameters (any key if there is ``**``), those without a
default are required, and each value has its annotation's JSON type (float a
number, tuple an array, null only for ``X | None``, a bool no number; other
annotations unchecked). An object no definition describes gets a
signature-only function as its schema, with ``...`` defaults.
"""

from __future__ import annotations

import inspect
import types
import typing
from functools import lru_cache


class SchemaError(ValueError):
    """A JSON input breaks its schema."""


_JSON = {int: ("integer", (int,)), float: ("number", (int, float)), str: ("string", (str,)),
         bool: ("boolean", (bool,)), dict: ("object", (dict,)), list: ("array", (list,)),
         tuple: ("array", (list,)), type(None): ("null", (type(None),))}


@lru_cache(maxsize=None)
def _schema(fn) -> tuple[dict, frozenset, bool]:
    """((JSON name, types) or None per keyword, required keywords, takes ``**``)."""
    params = inspect.signature(fn, eval_str=True).parameters.values()
    named = [p for p in params if p.kind is not p.VAR_KEYWORD]
    types_of = {}
    for p in named:
        union = typing.get_origin(p.annotation) in (typing.Union, types.UnionType)
        parts = [_JSON.get(typing.get_origin(a) or a)
                 for a in (typing.get_args(p.annotation) if union else (p.annotation,))]
        types_of[p.name] = None if None in parts else (
            " or ".join(name for name, _ in parts), sum((t for _, t in parts), ()))
    required = frozenset(p.name for p in named if p.default is p.empty)
    return types_of, required, len(named) < len(params)


def checked(fn, obj, where: str, exclude=(), error=SchemaError):
    """obj, once it is known to fit ``fn``'s signature; parameters named in
    ``exclude`` are neither required nor admitted."""
    if not isinstance(obj, dict):
        raise error(f"{where} must be a JSON object")
    types_of, required, var_keyword = _schema(fn)
    unknown = [key for key in obj if key in exclude or not (var_keyword or key in types_of)]
    if unknown:
        raise error(f"{where}: unknown keys {sorted(unknown)}")
    missing = required.difference(obj, exclude)
    if missing:
        raise error(f"{where}: missing required keys {sorted(missing)}")
    for key, value in obj.items():
        name, accepts = types_of.get(key) or ("", None)
        if accepts and (not isinstance(value, accepts)
                        or isinstance(value, bool) and bool not in accepts):
            raise error(f"{where}: {key} must be a JSON {name}, got {value!r}")
    return obj
