"""Stacked calls give the bits of a loop of single calls, at any split."""

import numpy as np
import pytest

from carnotx import (
    Ellipticity,
    field_from_profile,
    gauge_quartic,
    heisenberg,
    horizontal_hessian_sym,
    pucci_minus,
    pucci_plus,
    radial_hessian,
    sym_eigenvalues,
)
from carnotx.calculus import ScalarField, _radial_eigenvalues
from carnotx.estimates import power_profile
from carnotx.group import _gauge_parts

E13 = Ellipticity(lam=1.0, Lam=3.0)
SPLIT = 37


def matrix_stack(m, seed=0):
    """Random symmetric matrices with zero, diagonal and sparse ones mixed in."""
    rng = np.random.default_rng(seed + m)
    a = rng.standard_normal((60, m, m))
    a = 0.5 * (a + np.swapaxes(a, -1, -2))
    a[:5] = 0.0
    a[5:10] = [np.diag(rng.standard_normal(m)) for _ in range(5)]
    a[10:15, 0, -1] = a[10:15, -1, 0] = 0.0
    return a


def point_stack(group, count=80, seed=1):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.0, 1.0, (count, group.n))
    return pts[np.sum(pts[:, : group.m] ** 2, axis=1) > 0.01]


def assert_stack_is_loop(stacked, single, items):
    """stacked(items) equals single() item by item and across a split."""
    whole = stacked(items)
    loop = np.array([single(item) for item in items])
    assert np.array_equal(whole, loop)
    halves = np.concatenate([stacked(items[:SPLIT]), stacked(items[SPLIT:])])
    assert np.array_equal(whole, halves)


@pytest.mark.parametrize("m", range(1, 7))
def test_sym_eigenvalues(m):
    assert_stack_is_loop(sym_eigenvalues, sym_eigenvalues, matrix_stack(m))


@pytest.mark.parametrize("op", [pucci_plus, pucci_minus])
@pytest.mark.parametrize("m", [2, 4, 6])
def test_pucci_operators(op, m):
    def apply(a):
        return op(a, E13)

    assert_stack_is_loop(apply, apply, matrix_stack(m, seed=3))


def fields(group):
    quartic = gauge_quartic(group)
    return [
        quartic,
        ScalarField(name="quartic-fd", evaluate=quartic.evaluate),
        field_from_profile(group, power_profile(0.4)),
        ScalarField(
            name="sin*t",
            evaluate=lambda x: np.sin(x[..., 0]) * x[..., -1] + x[..., 1] ** 3,
        ),
    ]


@pytest.mark.parametrize("d", [1, 2])
def test_horizontal_hessian(d):
    group = heisenberg(d)
    pts = point_stack(group)
    for u in fields(group):
        def hess(x, u=u):
            return horizontal_hessian_sym(group, u, x)

        assert_stack_is_loop(hess, hess, pts)


@pytest.mark.parametrize("d", [1, 2])
def test_radial_hessian(d):
    group = heisenberg(d)
    profile = power_profile(0.3)
    pts = point_stack(group, seed=2)
    for part in ("matrix", "eigen_radial", "eigen_tangential", "eigen_flat"):
        def get(x, part=part):
            return getattr(radial_hessian(group, profile, x), part)

        assert_stack_is_loop(get, get, pts)

    def eigenvalues(x):
        rho, _, g = _gauge_parts(group, x)
        return _radial_eigenvalues(d, profile, rho, g)

    assert np.array_equal(eigenvalues(pts), [eigenvalues(x) for x in pts])


def test_empty_stacks():
    group = heisenberg(2)
    empty = np.empty((0, group.n))
    assert horizontal_hessian_sym(group, gauge_quartic(group), empty).shape == (0, 4, 4)
    assert radial_hessian(group, power_profile(0.5), empty).matrix.shape == (0, 4, 4)
    for m in (1, 3):
        assert sym_eigenvalues(np.empty((0, m, m))).shape == (0, m)
