"""The report writer against the recursive reference in `_oracles`."""

import enum
from dataclasses import dataclass
from typing import Any

import numpy as np
import pytest
from _oracles import reference_dumps

from carnotx.report import dumps


@dataclass(frozen=True)
class Inner:
    values: np.ndarray
    missing: Any


@dataclass(frozen=True)
class Outer:
    name: str
    inner: Inner
    rows: tuple


class Tag(str):
    pass


class Ratio(float):
    pass


class Level(enum.IntEnum):
    HIGH = 3


EDGES = {
    "numpy scalars": [np.float32(0.1), np.float64(1 / 3), np.int64(-7), np.bool_(True)],
    "bool and int": [True, False, 1, 0, -1, 2**70],
    "non-finite": [float("inf"), float("-inf"), float("nan"), np.float64(np.nan)],
    "zeros": [0.0, -0.0, np.float64(-0.0), 5e-324, 1e308],
    "empty": [{}, [], ()],
    "subclasses": [Tag("tag\n"), Ratio(0.25), Ratio("nan"), Level.HIGH],
    "nested": Outer(
        name="outer",
        inner=Inner(values=np.array([[1.5, -0.0], [np.inf, 2.0]]), missing=None),
        rows=(Inner(values=np.arange(3), missing={"k": [None]}),),
    ),
    "strings": ["plain", "é ü 漢 😀", "tab\tnew\nline\x00bell\x07", '"quoted" \\ slash/'],
    "kéy\t\"\x01": {"漢": "\x1f", "": ""},
}


def test_dumps_matches_the_reference_on_edge_cases():
    text = dumps(EDGES)
    assert text == reference_dumps(EDGES)
    assert text.isascii()


def test_dumps_matches_the_reference_per_value():
    for value in EDGES.values():
        assert dumps(value) == reference_dumps(value)


@pytest.mark.parametrize(
    "bad, match",
    [
        ({1: "x"}, "keys must be strings"),
        ({"ok": {None: 1}}, "keys must be strings"),
        ([{1, 2}], "cannot serialize set"),
        ({"x": object()}, "cannot serialize object"),
        (Inner, "cannot serialize type"),
    ],
)
def test_unsupported_values_raise(bad, match):
    for writer in (dumps, reference_dumps):
        with pytest.raises(TypeError, match=match):
            writer(bad)
