"""Deterministic report serialization.

Reports are byte-identical for identical inputs regardless of worker
count: floats are always rendered with the '.17g' format (full round-trip
precision), keys keep insertion order, and non-finite values become nulls.
The formatting adds no platform dependence, but the values written may
differ across platforms in their last bits (numpy's SIMD loops, BLAS
kernels).  The CSV writer emits one row per measured cell with a fixed
header and newline convention.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import json
import math
from typing import Any, Iterable

import numpy as np

from .estimates import SweepRow

__all__ = [
    "SCHEMA_VERSION",
    "dumps",
    "write_json",
    "write_rows_csv",
]

SCHEMA_VERSION = 19

CSV_HEADER = tuple(f.name for f in dataclasses.fields(SweepRow))


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        return "null"
    return format(x, ".17g")


# What json.dumps(str) calls with its default arguments.
_quote = json.encoder.encode_basestring_ascii


@functools.cache
def _pads(depth: int, brackets: str) -> tuple[str, str, str]:
    """A non-empty container's text at `depth` before, between and after items."""
    inner = "\n" + "  " * (depth + 1)
    return brackets[0] + inner, "," + inner, "\n" + "  " * depth + brackets[1]


@functools.cache
def _layout(cls: type, depth: int) -> tuple[tuple[tuple[str, str], ...], str] | None:
    """Each field of dataclass `cls` (the exact class) at `depth` as (the whole
    text before its value, its name), and the closing text; None otherwise."""
    if not dataclasses.is_dataclass(cls):
        return None
    first, sep, close = _pads(depth, "{}")
    names = [f.name for f in dataclasses.fields(cls)]
    prefixes = (f"{sep if i else first}{_quote(n)}: " for i, n in enumerate(names))
    return tuple(zip(prefixes, names)), close if names else "{}"


def _write(obj: Any, out: list[str], depth: int) -> None:
    # Strings and floats, most of the leaves, go first; neither is ever a
    # bool, an int or an np.bool_.  Containers write finite `float` items
    # themselves, without a call.
    if isinstance(obj, str):
        out.append(_quote(obj))
    elif isinstance(obj, (float, np.floating)):
        out.append(_fmt_float(float(obj)))
    elif obj is None:
        out.append("null")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, np.ndarray):
        _write(obj.tolist(), out, depth)
    elif (layout := _layout(type(obj), depth)) is not None:
        fields, close = layout
        for prefix, name in fields:
            out.append(prefix)
            value = getattr(obj, name)
            if type(value) is float and math.isfinite(value):
                out.append(format(value, ".17g"))
            else:
                _write(value, out, depth + 1)
        out.append(close)
    elif isinstance(obj, dict):
        lead, sep, close = _pads(depth, "{}")
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"report keys must be strings, got {key!r}")
            out.append(f"{lead}{_quote(key)}: ")
            lead = sep
            if type(value) is float and math.isfinite(value):
                out.append(format(value, ".17g"))
            else:
                _write(value, out, depth + 1)
        out.append(close if obj else "{}")
    elif isinstance(obj, (list, tuple)):
        lead, sep, close = _pads(depth, "[]")
        for value in obj:
            out.append(lead)
            lead = sep
            if type(value) is float and math.isfinite(value):
                out.append(format(value, ".17g"))
            else:
                _write(value, out, depth + 1)
        out.append(close if obj else "[]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


def dumps(obj: Any) -> str:
    """Render a report structure as deterministic JSON text."""
    out: list[str] = []
    _write(obj, out, 0)
    out.append("\n")
    return "".join(out)


def write_json(obj: Any, path: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(dumps(obj))


def _csv_cell(value: Any) -> str:
    if isinstance(value, (float, np.floating)):
        return _fmt_float(float(value))
    return str(value)


def write_rows_csv(rows: Iterable[SweepRow], path: str) -> None:
    """One CSV row per measured (eps, q) cell, fixed header, '\\n' endings."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for row in rows:
            writer.writerow([_csv_cell(getattr(row, name)) for name in CSV_HEADER])
