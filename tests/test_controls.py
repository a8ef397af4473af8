"""Negative controls: one table of planted defects, each failing named verdict conditions alone.

A row is one call (a CLI argv, or a library call where no monkeypatch on a library function
reaches the condition), one plant, the CONDITIONS it fails and a check of the planted report.
"""

import contextlib
import dataclasses
import functools
import io
import json
import tempfile

import numpy as np
import pytest

from carnotx import ConvexityCase, Ellipticity, McEstimate, ScalarField, calculus, constant_field
from carnotx import convexity, estimates, field_from_profile, heisenberg, horizontal_quadratic
from carnotx import pointwise_bound_check, pucci, pucci_minus, saddle_field
from carnotx.cli import run
from carnotx.estimates import MAX_PULL, NORM_RATIO_MAX, R2_MIN, RADIAL_TOL
from carnotx.pucci import PUCCI_TOL
from carnotx.report import dumps

H1 = heisenberg(1)
TOL = 1e-8  # the residuals' and the bound's; the bound's upper side adds 4 ulp, below 1e-14 here


def _each(key, holds, kind=None):
    """The condition that holds(entry) for each entry of results[key] (results for None) of kind."""
    return lambda res: all(
        holds(e) for e in (res[key] if key else res) if kind in (None, e.get("kind"))
    )


CONDITIONS = {(command, name): holds for command, named in {
    "counterexample": {
        "power slope pull": _each("fits", lambda f: abs(f["slope_pull"]) <= MAX_PULL, "power"),
        "fit worst source pull": _each("fits", lambda f: abs(f["worst_f_pull"]) <= MAX_PULL),
        "critical norm ratio": _each(
            "fits", lambda f: f["f_norm_ratio"] <= NORM_RATIO_MAX, "critical"
        ),
        "critical R^2": _each("fits", lambda f: f["r2"] >= R2_MIN, "critical"),
        "outer residual": _each("annihilation", lambda a: a["max_outer_residual"] <= TOL),
        "inner residual": _each("annihilation", lambda a: a["max_inner_residual"] <= TOL),
        "matrix route": _each("annihilation", lambda a: a["matrix_route_dev"] <= TOL),
        "stencil excess": _each("annihilation", lambda a: a["fd_max_excess"] <= 1.0),
    },
    "verify-radial": {"error bound": _each(None, lambda row: row["max_rel_error"] <= RADIAL_TOL)},
    "pucci": {"gap": lambda r: r["worst_gap"] <= PUCCI_TOL, "attained": lambda r: r["attained"]},
    "convexity": {
        "lines": _each(None, lambda row: row["lines"]["passed"] == row["expected"]),
        "eigen": _each(None, lambda row: row["eigen"]["passed"] == row["expected"]),
    },
    "pointwise-bound": {
        "semiconvex": lambda res: res["semiconvex_ok"],
        "supersolution": lambda res: res["supersolution_ok"],
        "lower margin": lambda res: res["lower_margin"] >= -TOL,
        "upper margin": lambda res: res["upper_margin"] >= -TOL,
        "surrogate margin": lambda res: res["surrogate_margin"] >= -TOL,
    },
    "ball-volume": {"pull": _each(None, lambda row: abs(row["pull"]) <= MAX_PULL)},
}.items() for name, holds in named.items()}
# The critical fit's R^2 is fitted to the closed-form outer Hessian mass, so it is exactly 1
# and no plant fails it alone: ROADMAP item 1 samples that mass.
UNCOVERED = {("counterexample", "critical R^2")}


def _bound(c4, f):
    """pointwise_bound_check in the window (1, 2) of estimates.horizontal_quadratic(H1, 0)."""
    e = Ellipticity(1.0, 2.0)
    return ("pointwise-bound", lambda: pointwise_bound_check(
        H1, lambda mat: pucci_minus(mat, e), estimates.horizontal_quadratic(H1, 0.0),
        constant_field(f), c4, e, lambda n, rng: rng.uniform(-1.0, 1.0, (n, 3)), 16, 42,
    ))


CALLS = {
    "sweep": ("counterexample", "--eps", "2^-3..2^-6", "--q", "2,8/3", "--samples", "2000",
              "--annihilation-samples", "200"),
    "sweep-defaults": ("counterexample", "--q", "2", "--annihilation-samples", "0"),
    "radial-h1": ("verify-radial", "--points", "20"),
    "radial-h2": ("verify-radial", "--group", "h:2", "--points", "20"),
    "pucci-dim2": ("pucci", "--dim", "2", "--count", "64", "--samples", "4096"),
    "pucci-Lam1e6": ("pucci", "--lam", "1", "--Lam", "1e6"),
    "convexity": ("convexity", "--lines", "24", "--points", "24"),
    "bound-h1": ("pointwise-bound", "--count", "16"),
    "bound-h2": ("pointwise-bound", "--group", "h:2", "--count", "16"),
    "bound-c4": _bound(0.5, 0.0),
    "bound-f": _bound(0.0, 10.0),
    "ball": ("ball-volume", "--r", "1", "--samples", "20000", "--seed", "3"),
}


def _report(call):
    """The call's verdict, its results as a written report reads them, and its stdout."""
    if callable(call[1]):
        rep = call[1]()
        return rep.passed, json.loads(dumps(rep)), ""
    with tempfile.NamedTemporaryFile("r") as fh, contextlib.redirect_stdout(io.StringIO()) as out:
        code = run([*call, "--out", fh.name])
        payload = json.load(fh)
    passed, out = payload["passed"], out.getvalue()
    assert (code, out.splitlines()[-1]) == (1 - passed, f"overall: {'PASS' if passed else 'FAIL'}")
    return passed, payload["results"], out


_honest = functools.cache(_report)


def _after(module, name, wrap):
    """A plant: module.name(*args) returns wrap(its real value, *args)."""
    real = getattr(module, name)
    return lambda mp: mp.setattr(module, name, lambda *args: wrap(real(*args), *args))


def _w_is_v(mp):
    # radial_hessian forms v v^T and then w w^T with w = J v; handing it v v^T twice puts the
    # flat eigenvalue where the tangential one belongs.
    real, calls = calculus._outer, []

    def outer(a, b):
        calls.append(a)
        return real(calls[-2], calls[-2]) if len(calls) % 2 == 0 else real(a, b)

    mp.setattr(calculus, "_outer", outer)


def _catalog(values, hessian, threshold):
    """One catalog case: the values of values/2 |x_H|^2 and the Hessian of hessian/2 |x_H|^2."""
    quad = horizontal_quadratic
    return _after(convexity, "convexity_catalog", lambda _, g: [ConvexityCase(dataclasses.replace(
        quad(g, values), horizontal_hessian=quad(g, hessian).horizontal_hessian
    ), threshold)])


def _field(make):
    """A plant: estimates.horizontal_quadratic(group, coeff) returns make(group, coeff)."""
    return _after(estimates, "horizontal_quadratic", lambda _, *args: make(*args))


def _rhs(change):
    """The sweep's right-hand side with each value v changed to change(v, rho >= eps, eps^(a-2))."""
    return _after(estimates, "counterexample_rhs_field", lambda f, cfg, eps: dataclasses.replace(
        f, of_gauge=lambda rho, *a: change(f.of_gauge(rho, *a), rho >= eps, eps ** (cfg.alpha - 2))
    ))


def _at_eps_4(key, change):
    """lq_norm with the field key of each estimate at the radius 2^-4 changed by change."""
    return _after(estimates, "lq_norm", lambda ests, u, g, r, *_: tuple(
        dataclasses.replace(e, **{key: change(e)}) if r == 2**-4 else e for e in ests
    ))


def _all(count, want, key=None):
    """A check: results[key] (results for None) holds count entries, each failing, with want."""
    fail = _each(key, lambda e: not e["passed"] and want(e))
    return lambda res, *_: len(res[key] if key else res) == count and fail(res)


# A stencil that differentiates psi (1 + 1e-3) in place of psi is off by a relative 1e-3: ten
# times the annihilation tolerance and a hundred times verify-radial's.
_DETUNED = _after(estimates, "field_from_profile", lambda _, group, p: field_from_profile(
    group, dataclasses.replace(p, psi=lambda r: (1.0 + 1e-3) * p.psi(r))
))
# Eigenvalues 0.25e-8 and -0.95e-8: the trace, -7e-9, passes the lower side and the entry bound,
# -1.3e-8, fails.  Lower and surrogate fail alone only inside the 1e-8 band: beyond it,
# M + c4 I >= 0 implies both.
_SMALL = 1e-8 * np.array([[-0.35, 0.6], [0.6, -0.35]])
_SMALL_FIELD = ScalarField(
    "small", lambda x: 0.5 * np.einsum("...i,ij,...j->...", x[..., :2], _SMALL, x[..., :2]),
    horizontal_hessian=lambda x: np.broadcast_to(_SMALL, x.shape[:-1] + (2, 2)),
)

ROWS = [  # (id, call, plant, the conditions it fails, check(results, honest results, stdout))
    # Exponents 0.01 too large: 11 standard errors of the slope, inside a fixed 0.05 window.
    ("power-slope", "sweep-defaults", _after(estimates, "_sweep_row", lambda row, *_: (
        dataclasses.replace(row, predicted_exponent=row.predicted_exponent + 0.01)
    )), {"power slope pull"}, lambda res, *_: res["annihilation"] == [] and all(
        not f["passed"] and f["slope_pull"] < -MAX_PULL
        and abs(f["fitted_slope"] - f["predicted_slope"]) <= 0.05 for f in res["fits"]
    )),
    # Every source mass at 2^-4 reads 10 standard errors high; the slopes still pass.
    ("source-pull", "sweep", _at_eps_4("mass", lambda e: e.mass + 10 * e.mass_stderr),
     {"fit worst source pull"}, lambda res, _, out: all(
         not f["passed"] and f["worst_f_pull"] > 5
         and f"source-mass pull {f['worst_f_pull']:.3g} " in out for f in res["fits"]
     )),
    # The norms alone: the masses and their pulls stay.
    ("critical-ratio", "sweep", _at_eps_4("norm", lambda e: 1.3 * e.norm), {"critical norm ratio"},
     None),
    ("outer-residual", "sweep", _rhs(lambda v, outside, scale: v + 1e-6 * scale * outside),
     {"outer residual"}, None),
    ("inner-residual", "sweep", _rhs(lambda v, *_: v * (1 + 1e-6)), {"inner residual"}, None),
    # The matrix route reading a relative 1e-6 high is a hundred times the tolerance off.
    ("matrix-route", "sweep", _after(estimates, "pucci_plus", lambda out, *_: out * (1 + 1e-6)),
     {"matrix route"}, _all(4, lambda a: a["matrix_route_dev"] > TOL, "annihilation")),
    ("stencil-annihilation", "sweep", _DETUNED, {"stencil excess"},
     _all(4, lambda a: a["fd_max_excess"] == pytest.approx(10, rel=1e-2), "annihilation")),
    ("stencil-radial", "radial-h1", _DETUNED, {"error bound"}, lambda res, honest, _: (
        [row["profile"] for row in honest] == ["power[0.5]", "quartic"]
        and _all(2, lambda row: row["max_rel_error"] == pytest.approx(1e-3, rel=1e-2))(res)
    )),
    *[(f"rotation-{g}", f"radial-{g}", _w_is_v, {"error bound"},
       _all(2, lambda row: row["max_rel_error"] > 0.1)) for g in ("h1", "h2")],
    # 1% low on the honest run's worst matrix alone (index 60; the honest run is cached before
    # the plant), whose sup is 0.27% below the formula.
    ("low-formula", "pucci-dim2", _after(pucci, "pucci_plus_of_eigenvalues", lambda out, *_: out - (
        0.01 * np.abs(out) * (np.arange(len(out)) == _honest(CALLS["pucci-dim2"])[1]["worst_index"])
    )), {"gap", "attained"}, lambda res, honest, _: (
        res["worst_index"] == honest["worst_index"] > 0 and honest["worst_gap"] <= 0.0
    )),
    # The tolerance of attained is 1e-10 of Lam ||M||, so a formula a relative 1e-8 low misses it.
    ("formula-1e-8-low", "pucci-Lam1e6", _after(
        pucci, "pucci_plus_of_eigenvalues", lambda out, *_: out - 1e-8 * np.abs(out)
    ), {"attained"}, None),
    ("sup-above-formula", "pucci-dim2", _after(pucci, "pucci_oracle_check", lambda out, a, e, *_: (
        out[1] + 1e-6 * np.maximum(1, e.Lam * np.linalg.norm(a, axis=(-2, -1))), *out[1:]
    )), {"gap"}, None),
    # -|x_H|^2/2 has threshold 1; claiming 0 makes both checkers disagree at every c below 1.
    ("wrong-threshold", "convexity", _catalog(-1, -1, 0.0), {"lines", "eigen"}, lambda res, *_: [
        (row["c"], row["expected"], row["agreed"]) for row in res
    ] == [(0.0, True, False), (0.5, True, False), (1.0, True, True), (2.0, True, True)]),
    ("eigen-side", "convexity", _catalog(-1, 1, 1.0), {"eigen"}, None),
    ("lines-side", "convexity", _catalog(1, -1, 1.0), {"lines"}, None),
    # -3|x_H|^2/2 is semiconvex with constant 3, above the tight configuration's c4 = 1.
    ("field-past-c4", "bound-h1", _field(lambda g, c: horizontal_quadratic(g, 3 * c)),
     {"semiconvex", "lower margin", "surrogate margin"}, lambda _, honest, __: (
         honest["n_points"] == 16
         and abs(honest["lower_margin"]) <= 1e-12 and abs(honest["upper_margin"]) <= 1e-12
     )),
    ("supersolution", "bound-h1", _after(estimates, "pucci_minus", lambda out, *_: out + 1),
     {"supersolution"}, None),
    # Twice M- at half the curvature stays below f = -Lam m, outside the Pucci sandwich.
    ("upper", "bound-h1", lambda mp: [plant(mp) for plant in (
        _field(lambda g, c: horizontal_quadratic(g, 0.5 * c)),
        _after(estimates, "pucci_minus", lambda out, *_: 2 * out),
    )], {"upper margin"}, None),
    ("lower", "bound-h2", _field(lambda g, c: horizontal_quadratic(g, (1 + 6e-9) * c)),
     {"lower margin"}, None),
    ("saddle-past-c4", "bound-c4", _field(lambda g, c: saddle_field(g)), {"semiconvex"}, None),
    ("surrogate", "bound-f", _field(lambda g, c: _SMALL_FIELD), {"surrogate margin"}, None),
    ("ball-volume", "ball", _after(estimates, "ball_volume", lambda est, *_: McEstimate(
        est.value + 10 * est.stderr, est.stderr
    )), {"pull"}, lambda res, honest, out: (
        res[0]["pull"] == pytest.approx(honest[0]["pull"] + 10, rel=1e-12)
        and honest[0]["exact"] == pytest.approx(np.pi**2 / 2, rel=1e-15)
        and f"pull {res[0]['pull']:.3g}\n" in out and not res[0]["passed"]
    )),
]


def test_rows_cover_every_condition_but_the_uncovered():
    covered = {(CALLS[row[1]][0], c) for row in ROWS for c in row[3]}
    assert covered == CONDITIONS.keys() - UNCOVERED


def _failing(call, res):
    return {c for (cmd, c), holds in CONDITIONS.items() if cmd == call[0] and not holds(res)}


@pytest.mark.parametrize("name", CALLS)
def test_unplanted_call_passes_every_condition(name):
    passed, res, _ = _honest(CALLS[name])
    assert passed and _failing(CALLS[name], res) == set()


@pytest.mark.parametrize("call, plant, fails, check", [r[1:] for r in ROWS], ids=next(zip(*ROWS)))
def test_plant_fails_its_conditions_alone(call, plant, fails, check, monkeypatch):
    honest = _honest(CALLS[call])
    plant(monkeypatch)
    passed, res, out = _report(CALLS[call])
    assert not passed and _failing(CALLS[call], res) == fails
    assert check is None or check(res, honest[1], out)
