"""The JSON form of every artifact returncast writes, and the reader of the
one it reads back.

Cycle records and stage artifacts are encoded from their dataclasses here
and nowhere else (`to_json`). A cycle record is decoded here too, by the
inverse walk over the same fields (`from_json`), so the on-disk format has
one source in both directions: a field added to a record needs no reader
code of its own.
"""
from __future__ import annotations

import dataclasses
import enum
import functools
import json
import math
from types import MappingProxyType
from typing import get_args, get_type_hints

import numpy as np

from .core import MonthIndex
from .errors import ValidationError


def to_json(obj):
    """`obj` as plain JSON data.

    A dataclass becomes an object of its fields, leaving out a field that is
    None where None is its default. Enums are written as their value,
    MonthIndex as YYYY-MM, read-only mappings as objects, tuples as lists,
    arrays as lists, and NaN, in an array or alone, as null.
    """
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, MonthIndex):
        return str(obj)
    if dataclasses.is_dataclass(obj):
        doc = {}
        for f in dataclasses.fields(obj):
            value = getattr(obj, f.name)
            if value is None and f.default is None:
                continue
            doc[f.name] = to_json(value)
        return doc
    if isinstance(obj, np.ndarray):
        return [None if math.isnan(v) else v for v in obj.tolist()]
    if isinstance(obj, (dict, MappingProxyType)):
        return {k: to_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_json(v) for v in obj]
    if isinstance(obj, float) and math.isnan(obj):
        return None
    return obj


def json_text(obj) -> str:
    """The file text of `obj`: strict JSON, indented, keys sorted,
    newline-terminated. An infinite number raises ValueError."""
    return json.dumps(to_json(obj), indent=2, sort_keys=True, allow_nan=False) + "\n"


# ------------------------------------------------------------------ reading


def from_json(kind, data):
    """The `kind` dataclass that `to_json` wrote as `data`, read field by
    field through the type hints. A missing field takes its default, or
    raises KeyError with its dotted path if it has none; a value of the
    wrong shape raises a ValidationError that names its dotted path."""
    return _reader(kind)(data, "")


def _leaf(accepts: tuple, convert, expected: str):
    def read(value, path):
        if type(value) in accepts:
            try:
                return convert(value)
            except (ValueError, OverflowError):  # a bad month, or an int past float
                pass
        raise ValidationError(f"record field '{path}' must be {expected}, got {value!r:.40}")
    return read


@functools.cache
def _reader(hint):
    """How to read a value of type `hint` at a dotted path, built once per
    type: a dataclass's field hints are resolved here, not per record."""
    if hint in _LEAVES:
        return _leaf(*_LEAVES[hint])
    if type(None) in get_args(hint):  # Optional: null, or the other type
        (inner,) = (_reader(arg) for arg in get_args(hint) if arg is not type(None))
        return lambda value, path: None if value is None else inner(value, path)
    if issubclass(hint, enum.Enum):
        return _leaf((str,), hint, f"one of {[m.value for m in hint]}")
    hints = get_type_hints(hint)
    plan = [(f.name, _reader(hints[f.name]),
             f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING)
            for f in dataclasses.fields(hint)]
    read_object = _reader(dict)

    def read(value, path):
        read_object(value, path)
        kwargs = {}
        for name, read_field, required in plan:
            at = f"{path}.{name}" if path else name
            if name in value:
                kwargs[name] = read_field(value[name], at)
            elif required:
                raise KeyError(at)
        try:
            return hint(**kwargs)
        except ValidationError as exc:
            if path:  # a nested type's own rule; the record's rules name their fields
                raise ValidationError(f"record field '{path}': {exc}") from None
            raise
    return read


def _floats(values: list) -> np.ndarray:
    if all(v is None or type(v) in (float, int) for v in values):
        return np.array(values, dtype=float)  # null as NaN
    raise ValueError("not a number")


# type hint -> (the JSON types it reads, how it converts one, what it must be)
_LEAVES = {
    float: ((float, int, type(None)), lambda v: math.nan if v is None else float(v),
            "a number or null"),
    int: ((int,), int, "an integer"),
    str: ((str,), str, "a string"),
    dict: ((dict,), lambda v: v, "an object"),
    MonthIndex: ((str,), MonthIndex.parse, "a YYYY-MM month"),
    np.ndarray: ((list,), _floats, "a list of numbers and nulls"),
}
