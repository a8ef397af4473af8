"""Deterministic report serialization.

Reports must be byte-identical for identical inputs regardless of worker
count or platform, so floats are always rendered with the '.17g' format
(full round-trip precision), keys keep insertion order, and non-finite
values become nulls.  The CSV writer emits one row per measured cell with
a fixed header and newline convention.
"""

from __future__ import annotations

import csv
import dataclasses
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


def _write(obj: Any, out: list[str], indent: int) -> None:
    # Strings and floats, most of the leaves, go first; neither is ever a
    # bool, an int or an np.bool_.
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
        _write(obj.tolist(), out, indent)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        _write(
            {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)},
            out,
            indent,
        )
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        pad, inner = "  " * indent, "  " * (indent + 1)
        out.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"report keys must be strings, got {key!r}")
            out.append(f"{inner}{_quote(key)}: ")
            _write(value, out, indent + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        pad, inner = "  " * indent, "  " * (indent + 1)
        out.append("[\n")
        for i, value in enumerate(obj):
            out.append(inner)
            _write(value, out, indent + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "]")
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
