"""Reference scalar fields with exact derivative callbacks.

These power the convexity catalog, the pointwise-bound harness, and many
tests.  Every field is vectorized over stacked points and carries an
analytic Euclidean Hessian, so horizontal Hessians computed from them are
exact up to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calculus import ScalarField
from .group import GroupDescriptor, _points

__all__ = [
    "constant_field",
    "coordinate_field",
    "horizontal_quadratic",
    "add_horizontal_quadratic",
    "saddle_field",
    "gauge_quartic",
    "ConvexityCase",
    "convexity_catalog",
]


def constant_field(value: float, name: str | None = None) -> ScalarField:
    value = float(value)
    return ScalarField(
        name=name or f"const({value})",
        evaluate=lambda x: np.full(np.asarray(x).shape[:-1], value),
        euclid_hessian=lambda x: np.zeros(
            np.asarray(x).shape + (np.asarray(x).shape[-1],)
        ),
    )


def coordinate_field(group: GroupDescriptor, i: int) -> ScalarField:
    """The coordinate function x_i, i in 1..n."""
    if not 1 <= i <= group.n:
        raise ValueError(f"coordinate index must lie in 1..{group.n}, got {i}")
    n, k = group.n, i - 1
    return ScalarField(
        name=f"x{i}",
        evaluate=lambda x: _points(group, x)[..., k],
        euclid_hessian=lambda x: np.zeros(_points(group, x).shape + (n,)),
    )


def horizontal_quadratic(group: GroupDescriptor, coeff: float = 1.0) -> ScalarField:
    """(coeff/2) * sum_{i<=m} x_i^2; horizontal Hessian is exactly coeff * I_m."""
    m, n = group.m, group.n
    coeff = float(coeff)

    bump = np.zeros((n, n))
    bump[:m, :m] = coeff * np.eye(m)

    return ScalarField(
        name=f"{coeff}/2*|x_H|^2",
        evaluate=lambda x: 0.5
        * coeff
        * np.sum(_points(group, x)[..., :m] ** 2, axis=-1),
        euclid_hessian=lambda x: np.broadcast_to(
            bump, _points(group, x).shape[:-1] + (n, n)
        ),
    )


def add_horizontal_quadratic(group: GroupDescriptor, u: ScalarField, coeff: float) -> ScalarField:
    """u + horizontal_quadratic(group, coeff), callback by callback.

    The added term has exact horizontal Hessian coeff * I_m, which shifts
    every Hessian eigenvalue by exactly coeff.  A Hessian callback that u
    lacks stays absent, and u's smooth domain is kept.
    """
    q = horizontal_quadratic(group, coeff)

    def plus(ours, theirs):
        return None if ours is None else lambda x: np.asarray(ours(x), dtype=float) + theirs(x)

    return ScalarField(
        name=f"{u.name}+{q.name}",
        evaluate=plus(u.evaluate, q.evaluate),
        euclid_hessian=plus(u.euclid_hessian, q.euclid_hessian),
        smooth_domain=u.smooth_domain,
    )


def saddle_field(group: GroupDescriptor) -> ScalarField:
    """(x_2^2 - x_1^2) / 2; horizontal Hessian diag(-1, 1, 0, ...)."""
    if group.m < 2:
        raise ValueError("saddle needs at least two horizontal directions")
    n = group.n

    def evaluate(x: np.ndarray) -> np.ndarray:
        x = _points(group, x)
        return 0.5 * (x[..., 1] ** 2 - x[..., 0] ** 2)

    bump = np.zeros((n, n))
    bump[0, 0], bump[1, 1] = -1.0, 1.0

    return ScalarField(
        name="(x2^2-x1^2)/2",
        evaluate=evaluate,
        euclid_hessian=lambda x: np.broadcast_to(
            bump, _points(group, x).shape[:-1] + (n, n)
        ),
    )


def gauge_quartic(group: GroupDescriptor) -> ScalarField:
    """rho^4 = |x_H|^4 + t^2 on H^d: a polynomial, smooth everywhere."""
    m, n = group.m, group.n

    def evaluate(x: np.ndarray) -> np.ndarray:
        x = _points(group, x)
        h2 = np.sum(x[..., :m] ** 2, axis=-1)
        return h2**2 + x[..., -1] ** 2

    def hessian(x: np.ndarray) -> np.ndarray:
        x = _points(group, x)
        h2 = np.sum(x[..., :m] ** 2, axis=-1)
        out = np.zeros(x.shape + (n,))
        xh = x[..., :m]
        out[..., :m, :m] = 8.0 * xh[..., :, None] * xh[..., None, :]
        idx = np.arange(m)
        out[..., idx, idx] += 4.0 * h2[..., None]
        out[..., n - 1, n - 1] = 2.0
        return out

    return ScalarField(
        name="rho^4",
        evaluate=evaluate,
        euclid_hessian=hessian,
    )


@dataclass(frozen=True)
class ConvexityCase:
    """A catalog entry with its exact semiconvexity threshold.

    For c >= 0 the field is semiconvex with constant c precisely when
    c >= threshold; threshold 0 means convex along X-lines.  A negative c
    asks for uniform convexity, which the threshold does not classify.
    """

    field: ScalarField
    threshold: float


def convexity_catalog(group: GroupDescriptor) -> list[ConvexityCase]:
    """Six classified cases: three X-convex, two semiconvex-only, one worse.

    Thresholds are exact (the fields are quadratics or the gauge quartic),
    so the expected outcome at any tested constant follows by comparison.
    """
    return [
        ConvexityCase(horizontal_quadratic(group, 1.0), threshold=0.0),
        ConvexityCase(coordinate_field(group, 1), threshold=0.0),
        ConvexityCase(gauge_quartic(group), threshold=0.0),
        ConvexityCase(horizontal_quadratic(group, -1.0), threshold=1.0),
        ConvexityCase(saddle_field(group), threshold=1.0),
        ConvexityCase(horizontal_quadratic(group, -3.0), threshold=3.0),
    ]
