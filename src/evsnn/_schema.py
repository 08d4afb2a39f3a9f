"""One reader for every JSON value the program takes in, and its two writers.

``loads`` decodes JSON text, refusing NaN and Infinity. ``dumps`` encodes an
artifact (sorted keys, indent 2, a final newline) and ``canonical`` the compact
sorted form that is hashed or embedded in a checkpoint. ``checked`` holds an
object against the signature of the callable it feeds: its keys are the
parameters (any key if there is ``**``), those without a default are required,
each value has its annotation's JSON type (float a number, tuple an array, null
only for ``X | None``, a bool no number, a ``Literal`` its values'; other
annotations unchecked), lies within the ``Bound`` of an ``Annotated`` one and is
one of a ``Literal``'s values; post-inits and functions call ``bounded`` too.
An object no definition describes gets a signature-only function as its schema,
as do the command-line flags (``cli._flags``, which ``bounded`` names as flags).
"""

from __future__ import annotations

import inspect
import json
import math
import types
import typing
from functools import lru_cache


class SchemaError(ValueError):
    """A JSON input breaks its schema."""


class Bound(typing.NamedTuple):
    """lo <= value <= hi, or lo < value <= hi if ``exclusive``."""
    lo: float = -math.inf
    hi: float = math.inf
    exclusive: bool = False


_JSON = {int: ("integer", (int,)), float: ("number", (int, float)), str: ("string", (str,)),
         bool: ("boolean", (bool,)), dict: ("object", (dict,)), list: ("array", (list,)),
         tuple: ("array", (list,)), type(None): ("null", (type(None),))}


@lru_cache(maxsize=None)
def _schema(fn) -> tuple[dict, frozenset, bool, dict]:
    """((JSON name, types) or None per keyword, required keywords, takes ``**``,
    Bound or tuple of choices per ruled keyword)."""
    params = inspect.signature(fn, eval_str=True).parameters.values()
    named = [p for p in params if p.kind is not p.VAR_KEYWORD]
    types_of, rules = {}, {}
    for p in named:
        meta = getattr(p.annotation, "__metadata__", ())  # of Annotated[hint, *meta]
        hint = typing.get_args(p.annotation)[0] if meta else p.annotation
        rules.update((p.name, m) for m in meta if isinstance(m, Bound))
        if typing.get_origin(hint) is typing.Literal:  # its values are of one type
            rules[p.name], hint = typing.get_args(hint), type(typing.get_args(hint)[0])
        union = typing.get_origin(hint) in (typing.Union, types.UnionType)
        parts = [_JSON.get(typing.get_origin(a) or a)
                 for a in (typing.get_args(hint) if union else (hint,))]
        types_of[p.name] = None if None in parts else (
            " or ".join(name for name, _ in parts), sum((t for _, t in parts), ()))
    required = frozenset(p.name for p in named if p.default is p.empty)
    return types_of, required, len(named) < len(params), rules


def bounded(fn, values: dict, where: str, error=SchemaError) -> None:
    """Raise ``error`` for a value outside its key's Bound or Literal in ``fn``'s signature
    (a missing key passes, None too for a Bound, NaN never), named ``folds.seed`` under a
    section, ``--time-steps`` under ``"--"``, ``layer 0 (IF): theta`` under another
    ``where``, alone under ``""``."""
    for key, rule in _schema(fn)[3].items():
        value = values.get(key)
        if isinstance(rule, Bound):
            lo, hi, exclusive = rule
            if value is None or (lo < value if exclusive else lo <= value) and value <= hi:
                continue
            limit = f"<= {hi}" if value > hi else f"{'>' if exclusive else '>='} {lo}"
        elif key in values and value not in rule:  # rule: a Literal's values
            limit, value = " or ".join(", ".join(rule).rsplit(", ", 1)), repr(value)
        else:
            continue
        name = ("--" + key.replace("_", "-") if where == "--" else f"{where}.{key}"
                if where.isidentifier() else f"{where}: {key}" if where else key)
        raise error(f"{name} must be {limit}, got {value}")


def checked(fn, obj, where: str, exclude=(), error=SchemaError):
    """obj, once it is known to fit ``fn``'s signature; parameters named in
    ``exclude`` are neither required nor admitted."""
    if not isinstance(obj, dict):
        raise error(f"{where} must be a JSON object")
    types_of, required, var_keyword, _ = _schema(fn)
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
    bounded(fn, obj, where, error)
    return obj


def _refuse(constant: str):
    raise ValueError(f"{constant} is not a JSON number")


def loads(text: str | bytes, where: str):
    """The value JSON text holds; NaN and Infinity are refused."""
    try:
        return json.loads(text, parse_constant=_refuse)
    except ValueError as exc:  # a JSONDecodeError or UnicodeDecodeError too
        raise SchemaError(f"{where}: invalid JSON: {exc}") from exc


def dumps(obj) -> str:
    """The text of a JSON artifact: sorted keys, indent 2, a final newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def canonical(obj) -> str:
    """The compact JSON of ``obj`` with sorted keys, the form that is hashed."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
