"""The JSON form of every artifact returncast writes.

Cycle records and stage artifacts are encoded from their dataclasses here
and nowhere else, so the on-disk format has one source. Reading back stays
with each type's `from_dict`, which validates what it reads.
"""
from __future__ import annotations

import dataclasses
import enum
import json
import math

import numpy as np

from .core import MonthIndex


def to_json(obj):
    """`obj` as plain JSON data.

    A dataclass becomes an object of its fields, leaving out a field that is
    None where None is its default; a field whose metadata has a `json`
    callable is passed through it first. Enums are written as their value,
    MonthIndex as YYYY-MM, tuples as lists, and arrays as lists with NaN
    written as null.
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
            doc[f.name] = to_json(f.metadata["json"](value) if "json" in f.metadata else value)
        return doc
    if isinstance(obj, np.ndarray):
        return [None if math.isnan(v) else v for v in obj.tolist()]
    if isinstance(obj, dict):
        return {k: to_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_json(v) for v in obj]
    return obj


def json_text(obj) -> str:
    """The file text of `obj`: indented, keys sorted, newline-terminated."""
    return json.dumps(to_json(obj), indent=2, sort_keys=True) + "\n"
