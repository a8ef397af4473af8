"""Reference scalar fields with exact horizontal Hessian callbacks.

These power the convexity catalog, the pointwise-bound harness, and many
tests.  Every field is vectorized over stacked points and carries its
symmetrized horizontal Hessian (..., m, m) in closed form, so no frame is
built to read it and it is exact up to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calculus import ScalarField, _outer
from .group import GroupDescriptor, _frame_t, _points

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


def _constant_hessian(group: GroupDescriptor, diagonal):
    """The callback that gives every point the horizontal Hessian diag(diagonal)."""
    mat = np.diag(np.broadcast_to(np.asarray(diagonal, dtype=float), (group.m,)))
    return lambda x: np.broadcast_to(mat, _points(group, x).shape[:-1] + mat.shape)


def constant_field(value: float, name: str | None = None) -> ScalarField:
    """The constant value; its callback takes points of any H^d, where m = n - 1."""
    value = float(value)
    return ScalarField(
        name=name or f"const({value})",
        evaluate=lambda x: np.full(np.asarray(x).shape[:-1], value),
        horizontal_hessian=lambda x: np.zeros(np.shape(x)[:-1] + (np.shape(x)[-1] - 1,) * 2),
    )


def coordinate_field(group: GroupDescriptor, i: int) -> ScalarField:
    """The coordinate function x_i, i in 1..n; its symmetrized horizontal Hessian is 0."""
    if not 1 <= i <= group.n:
        raise ValueError(f"coordinate index must lie in 1..{group.n}, got {i}")
    return ScalarField(
        name=f"x{i}",
        evaluate=lambda x: _points(group, x)[..., i - 1],
        horizontal_hessian=_constant_hessian(group, 0.0),
    )


def horizontal_quadratic(group: GroupDescriptor, coeff: float = 1.0) -> ScalarField:
    """(coeff/2) * sum_{i<=m} x_i^2; horizontal Hessian is exactly coeff * I_m."""
    m = group.m
    coeff = float(coeff)
    return ScalarField(
        name=f"{coeff}/2*|x_H|^2",
        evaluate=lambda x: 0.5
        * coeff
        * np.sum(_points(group, x)[..., :m] ** 2, axis=-1),
        horizontal_hessian=_constant_hessian(group, coeff),
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
        horizontal_hessian=plus(u.horizontal_hessian, q.horizontal_hessian),
        smooth_domain=u.smooth_domain,
    )


def saddle_field(group: GroupDescriptor) -> ScalarField:
    """(x_2^2 - x_1^2) / 2; horizontal Hessian diag(-1, 1, 0, ...)."""

    def evaluate(x: np.ndarray) -> np.ndarray:
        x = _points(group, x)
        return 0.5 * (x[..., 1] ** 2 - x[..., 0] ** 2)

    return ScalarField(
        name="(x2^2-x1^2)/2",
        evaluate=evaluate,
        horizontal_hessian=_constant_hessian(group, [-1.0, 1.0] + [0.0] * (group.m - 2)),
    )


def gauge_quartic(group: GroupDescriptor) -> ScalarField:
    """rho^4 = |x_H|^4 + t^2 on H^d, a polynomial; its horizontal Hessian is
    8 x_H x_H^T + 4 |x_H|^2 I + 2 tau tau^T, tau the frame's t row."""
    m = group.m

    def evaluate(x: np.ndarray) -> np.ndarray:
        x = _points(group, x)
        h2 = np.sum(x[..., :m] ** 2, axis=-1)
        return h2**2 + x[..., -1] ** 2

    def hessian(x: np.ndarray) -> np.ndarray:
        x = _points(group, x)
        xh, tau = x[..., :m], _frame_t(group, x)
        out = 8.0 * _outer(xh, xh) + 2.0 * _outer(tau, tau)
        out[..., range(m), range(m)] += 4.0 * np.sum(xh**2, axis=-1)[..., None]
        return out

    return ScalarField(
        name="rho^4",
        evaluate=evaluate,
        horizontal_hessian=hessian,
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
