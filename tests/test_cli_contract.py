"""The CLI's exit-code contract over generated arguments of all six subcommands.

Every call exits 0 (pass), 1 (fail) or 2 (usage error), raises no
RuntimeWarning, and any report it writes has ``passed`` equal to
``exit == 0``.  A command that checks a statement true at every valid
input (`_NO_TRUE_FAIL`) never exits 1, since for it a FAIL is always
false.  The run is derandomized with a fixed example budget, so it draws
the same arguments every time.  Sizes (samples, points, counts) stay
small to keep the whole run under about two seconds; the values that
decide the math range over good and bad usage alike.
"""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from carnotx.cli import run

_floats = st.one_of(
    st.floats(0.05, 3.0),
    st.floats(-3.0, 3.0),
    st.sampled_from([0.0, -0.0, 1e-300, 1e-9, 1e-3, 20.0, 1e300, float("nan"), float("inf")]),
)
_groups = st.sampled_from(["h:1", "h:2", "h:3", "h:0", "e:1"])
_float_list = st.lists(_floats, min_size=1, max_size=3).map(lambda xs: ",".join(map(repr, xs)))
_dyadic_range = st.tuples(st.integers(-8, 1), st.integers(-8, 1)).map(
    lambda k: f"2^{k[0]}..2^{k[1]}"
)
_q_list = st.lists(
    st.sampled_from(["1", "2", "8/3", "3", "4", "0", "-1", "1/0", "1e400"]), min_size=1, max_size=3
).map(",".join)


# Each subcommand's options, with a strategy for each value's token.  An
# option is left out when its drawn value is None, so defaults are drawn too.
_OPTIONS = {
    "counterexample": {
        "--group": _groups,
        "--alpha": _floats,
        "--eps": st.one_of(_dyadic_range, _float_list),
        "--q": _q_list,
        "--samples": st.integers(-1, 3000),
        "--annihilation-samples": st.integers(-2, 300),
        "--workers": st.integers(0, 3),
    },
    "verify-radial": {
        "--group": _groups,
        "--alpha": _floats,
        "--points": st.integers(0, 300),
    },
    "pucci": {
        "--dim": st.integers(0, 6),
        "--count": st.integers(0, 8),
        "--samples": st.integers(0, 256),
        "--lam": _floats,
        "--Lam": _floats,
    },
    "convexity": {
        "--group": _groups,
        "--c": _float_list,
        "--lines": st.integers(0, 16),
        "--points": st.integers(0, 16),
    },
    "pointwise-bound": {
        "--group": _groups,
        "--lam": _floats,
        "--Lam": _floats,
        "--count": st.integers(0, 64),
    },
    "ball-volume": {
        "--group": _groups,
        "--r": _float_list,
        "--samples": st.integers(-1, 5000),
    },
}


# `pucci` checks the extremal-operator formula and `pointwise-bound` the
# trace bound in its tight configuration; both hold at every valid window.
# `verify-radial` checks closed-form Hessians against the stencil, which
# resolves every exponent it accepts.
_NO_TRUE_FAIL = {"pucci", "pointwise-bound", "verify-radial"}


def _argv(command: str) -> st.SearchStrategy[list[str]]:
    options = {
        flag: st.one_of(st.none(), values.map(str)) for flag, values in _OPTIONS[command].items()
    }
    options["--seed"] = st.one_of(st.none(), st.integers(-1, 2**64).map(str))
    return st.fixed_dictionaries(options).map(
        lambda chosen: [command]
        + [token for flag, value in chosen.items() if value is not None for token in (flag, value)]
    )


def _run_and_check(command: str, argv: list[str]) -> int:
    """Run argv and hold it to the contract; returns the exit code."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.json"
        sink = io.StringIO()
        with (
            warnings.catch_warnings(),
            contextlib.redirect_stdout(sink),
            contextlib.redirect_stderr(sink),
        ):
            warnings.simplefilter("error", RuntimeWarning)
            code = run(argv + ["--out", str(out)])
        assert code in ((0, 2) if command in _NO_TRUE_FAIL else (0, 1, 2)), sink.getvalue()
        if out.exists():
            assert json.loads(out.read_text())["passed"] == (code == 0)
        else:
            assert code == 2, sink.getvalue()
    return code


@pytest.mark.parametrize("command", sorted(_OPTIONS))
@settings(
    max_examples=20,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_exit_code_and_report_agree(command, data):
    _run_and_check(command, data.draw(_argv(command), label="argv"))


# Windows where a gap scaled by max(1, ||M||) instead of max(1, Lam ||M||)
# read as a FAIL, and a lam where the upper trace bound's rounding outgrew
# a fixed tolerance.
@pytest.mark.parametrize(
    "argv",
    [
        ["pucci", "--dim", "2", "--count", "8", "--samples", "256", "--lam", "1e6",
         "--Lam", "1e6", "--seed", "3"],
        ["pucci", "--dim", "2", "--count", "8", "--samples", "256", "--lam", "1e300",
         "--Lam", "1e300", "--seed", "3"],
        ["pointwise-bound", "--count", "50", "--lam", "1e-9", "--Lam", "3", "--seed", "3"],
        ["pointwise-bound", "--group", "h:3", "--count", "50", "--lam", "1e-9", "--Lam",
         "0.05", "--seed", "3"],
    ],
    ids=["pucci-1e6", "pucci-1e300", "pointwise-bound-h1", "pointwise-bound-h3"],
)
def test_a_right_statement_passes_at_an_extreme_window(argv):
    assert _run_and_check(argv[0], argv) == 0
