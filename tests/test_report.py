"""The report writer against the recursive reference in `_oracles`."""

import enum
from dataclasses import dataclass
from typing import Any

import numpy as np
import pytest
from _oracles import reference_dumps
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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


@dataclass(frozen=True)
class Wider(Inner):
    extra: float


@dataclass(frozen=True)
class Empty:
    pass


def nested(levels: int) -> Any:
    """A chain of `levels` containers: a dict, a list and a dataclass in turn."""
    value: Any = 0.5
    for i in range(levels):
        value = ({"next": value}, [value], Inner(values=value, missing=i))[i % 3]
    return value


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
    "one class at two depths": [
        Inner(values=np.array([0.5]), missing=1),
        {"deeper": [Inner(values=(), missing=None)]},
    ],
    "subclass adds a field": [
        Inner(values=1.0, missing=None),
        Wider(values=2.0, missing=None, extra=3.0),
        Inner(values=4.0, missing=Wider(values=[], missing={}, extra=-0.0)),
    ],
    "no fields": [Empty(), {"empty": Empty()}],
    "100 levels": nested(100),
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


def _trees() -> st.SearchStrategy:
    leaves = st.one_of(
        st.floats(),
        st.sampled_from([float("inf"), float("-inf"), float("nan"), -0.0, 5e-324, 1e-310]),
        st.integers(min_value=-(2**80), max_value=2**80),
        st.booleans(),
        st.none(),
        st.text(max_size=8),
        st.floats().map(np.float64),
        st.floats(width=32).map(np.float32),
        st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
        st.booleans().map(np.bool_),
        hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, max_side=3)),
        hnp.arrays(np.int64, hnp.array_shapes(min_dims=1, max_dims=2, max_side=3)),
    )
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.lists(children, max_size=4).map(tuple),
            st.dictionaries(st.text(max_size=4), children, max_size=4),
            st.builds(Inner, children, children),
            st.builds(Outer, st.text(max_size=4), children, children),
        ),
        max_leaves=24,
    )


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(_trees())
def test_dumps_matches_the_reference_on_generated_trees(tree):
    assert dumps(tree) == reference_dumps(tree)
