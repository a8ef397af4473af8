"""Horizontal differential calculus along a Carnot frame.

Euclidean partials come from analytic callbacks when a field carries them
and from central finite differences otherwise; the frame coefficients and
their partials are always exact polynomials supplied by the group
descriptor.  Differencing therefore never touches sigma, only the scalar
field itself.

The radial part implements the closed-form horizontal Hessian of gauge
functions psi(rho) on H^d, including its full eigenvalue multiset.
A single point is the one-element case of a stack of points (..., n).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .group import GroupDescriptor, _dot, _gauge_parts

__all__ = [
    "DomainError",
    "SingularPointError",
    "ScalarField",
    "RadialProfile",
    "horizontal_gradient",
    "horizontal_hessian_sym",
    "sublaplacian",
    "radial_frame",
    "radial_hessian",
    "radial_hessian_eigenvalues",
    "field_from_profile",
    "add_horizontal_quadratic",
    "check_field_consistency",
    "check_profile_consistency",
]


class DomainError(ValueError):
    """Point lies outside a field's smooth domain."""


class SingularPointError(DomainError):
    """Point lies on the singular set of a gauge-radial quantity."""


# --- finite differences ----------------------------------------------------

# The one stencil: fourth-order central differences with step
# 1e-3 * max(1, |x|_inf), Richardson-extrapolated from h and h/2.
# Offset -> coefficient tables; first-derivative coefficients are divided
# by h, second-derivative ones by h^2.
_D1 = ((-2, 1.0 / 12.0), (-1, -2.0 / 3.0), (1, 2.0 / 3.0), (2, -1.0 / 12.0))
_D2 = ((-2, -1.0 / 12.0), (-1, 4.0 / 3.0), (0, -5.0 / 2.0), (1, 4.0 / 3.0), (2, -1.0 / 12.0))
_FD_STEP = 1e-3


@dataclass(frozen=True)
class ScalarField:
    """A scalar function with optional analytic derivative callbacks.

    ``evaluate`` must accept stacked points of shape (..., n) and return
    shape (...).  When gradient or Hessian callbacks are present they are
    trusted; ``check_field_consistency`` verifies them against finite
    differences of ``evaluate``.  ``smooth_domain`` is a vectorized
    predicate for where derivative queries are legitimate (None means
    everywhere).  A field that is a function of the gauge on H^d carries
    ``of_gauge(rho, h2, g)``, mapping the stacks of ``group._gauge_parts``
    to values; its ``evaluate`` is then ``of_gauge`` of those parts
    (``_gauge_field``), so a caller holding the gauge need not recompute it.
    """

    name: str
    evaluate: Callable[[np.ndarray], np.ndarray]
    euclid_gradient: Optional[Callable[[np.ndarray], np.ndarray]] = None
    euclid_hessian: Optional[Callable[[np.ndarray], np.ndarray]] = None
    smooth_domain: Optional[Callable[[np.ndarray], np.ndarray]] = None
    of_gauge: Optional[Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]] = None

    def in_domain(self, x: np.ndarray) -> np.ndarray:
        if self.smooth_domain is None:
            return np.ones(np.asarray(x).shape[:-1], dtype=bool)
        return np.asarray(self.smooth_domain(np.asarray(x, dtype=float)))


_MAX_REDRAWS = 20


def _sample_admissible(
    u: ScalarField,
    sampler: Callable[[int, np.random.Generator], np.ndarray],
    count: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw sampler points, redrawing those outside u's smooth domain.

    Gives up with RuntimeError when points are still outside after
    _MAX_REDRAWS redraws.
    """
    pts = np.asarray(sampler(count, rng), dtype=float)
    bad = ~u.in_domain(pts)
    for _ in range(_MAX_REDRAWS):
        if not np.any(bad):
            break
        pts[bad] = np.asarray(sampler(int(np.sum(bad)), rng), dtype=float)
        bad = ~u.in_domain(pts)
    if np.any(bad):
        raise RuntimeError(
            f"sampler kept producing points outside the domain of {u.name!r}"
        )
    return pts


def _require_in_domain(u: ScalarField, x: np.ndarray) -> None:
    bad = ~np.asarray(u.in_domain(x), dtype=bool)
    if bad.any():
        raise DomainError(f"point {x[bad][0]!r} is outside the smooth domain of {u.name!r}")


# Points per stencil evaluation: memory stays bounded whatever the stack size.
_FD_CHUNK = 16


def _fd_derivatives(u: ScalarField, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Central-difference gradients and Hessians at points (..., n).

    One stencil serves both: axis rows at the second-derivative offsets,
    which include every first-derivative one, then rows at products of
    first-derivative offsets for each pair k < l.  Each point's values are
    combined by BLAS dots of its own, so its bits do not depend on the stack.
    """
    n = x.shape[-1]
    pairs = [(k, l) for k in range(n) for l in range(k + 1, n)]
    eye = np.eye(n)
    table = np.array(
        [off * eye[k] for k in range(n) for off, _ in _D2]
        + [oa * eye[k] + ob * eye[l] for k, l in pairs for oa, _ in _D1 for ob, _ in _D1]
    )
    grad_cols = [[off for off, _ in _D2].index(off) for off, _ in _D1]
    c1, c2 = np.array([c for _, c in _D1]), np.array([c for _, c in _D2])
    c_mix = np.array([ca * cb for _, ca in _D1 for _, cb in _D1])
    rows, cols = np.array(pairs, dtype=int).reshape(-1, 2).T

    flat = x.reshape(-1, n)
    grad, hess = np.empty(flat.shape), np.empty(flat.shape + (n,))
    for lo in range(0, len(flat), _FD_CHUNK):
        xc = flat[lo : lo + _FD_CHUNK]
        h = _FD_STEP * np.maximum(1.0, np.max(np.abs(xc), axis=-1))[:, None]
        h = np.concatenate([h, h / 2.0], axis=1)
        vals = u.evaluate((xc[:, None, None, :] + h[..., None, None] * table).reshape(-1, n))
        vals = np.asarray(vals, dtype=float).reshape(h.shape + (len(table),))
        axis = vals[..., : n * len(_D2)].reshape(h.shape + (n, len(_D2)))
        mix = vals[..., n * len(_D2) :].reshape(h.shape + (len(pairs), len(c_mix)))
        h2 = np.float_power(h, 2)[..., None]  # the C library's pow, as a scalar h**2
        H = np.empty(h.shape + (n, n))
        H[..., range(n), range(n)] = _dot(axis, c2) / h2
        H[..., rows, cols] = H[..., cols, rows] = _dot(mix, c_mix) / h2
        g = axis[..., grad_cols] @ c1 / h[..., None]
        # Richardson: the fourth-order error of h against h/2 cancels.
        grad[lo : lo + len(xc)], hess[lo : lo + len(xc)] = (
            (16.0 * a[:, 1] - a[:, 0]) / 15.0 for a in (g, H)
        )
    return grad.reshape(x.shape), hess.reshape(x.shape + (n,))


def _euclid_derivatives(u: ScalarField, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Euclidean gradients and Hessians at points (..., n).

    The field's callbacks give what they can; one stencil gives the rest,
    and none runs when both callbacks are present.
    """
    callbacks = (u.euclid_gradient, u.euclid_hessian)
    fd_pair = _fd_derivatives(u, x) if None in callbacks else (None, None)
    return tuple(
        fd if callback is None else np.asarray(callback(x), dtype=float)
        for callback, fd in zip(callbacks, fd_pair)
    )


# --- horizontal derivatives ------------------------------------------------


def horizontal_gradient(group: GroupDescriptor, u: ScalarField, x: np.ndarray) -> np.ndarray:
    """(X_1 u, ..., X_m u) at points (..., n); shape (..., m)."""
    x = np.asarray(x, dtype=float)
    _require_in_domain(u, x)
    grad = _euclid_derivatives(u, x)[0]
    sigma = np.asarray(group.sigma_eval(x), dtype=float)
    return (np.swapaxes(sigma, -1, -2) @ grad[..., None])[..., 0]


def horizontal_hessian_sym(group: GroupDescriptor, u: ScalarField, x: np.ndarray) -> np.ndarray:
    """Symmetrized horizontal Hessians ((X_i X_j + X_j X_i) u / 2).

    Takes points (..., n) and returns shape (..., m, m).  Assembled as
    sigma^T D^2u sigma plus the symmetrized first-order correction carrying
    the exact polynomial partials of sigma; the result is exactly symmetric.
    """
    x = np.asarray(x, dtype=float)
    _require_in_domain(u, x)
    grad, hess = _euclid_derivatives(u, x)
    sigma = np.asarray(group.sigma_eval(x), dtype=float)
    jac = np.asarray(group.sigma_jacobian_eval(x), dtype=float)
    main = np.swapaxes(sigma, -1, -2) @ hess @ sigma
    # first-order term: T_ij = sum_{l,k} sigma_li (d_l sigma_kj) (d_k u)
    first = np.einsum("...li,...lkj,...k->...ij", sigma, jac, grad)
    out = main + 0.5 * (first + np.swapaxes(first, -1, -2))
    return 0.5 * (out + np.swapaxes(out, -1, -2))


def sublaplacian(group: GroupDescriptor, u: ScalarField, x: np.ndarray) -> np.ndarray:
    """Trace of the symmetrized horizontal Hessian, i.e. sum_j X_j^2 u; shape (...)."""
    return np.trace(horizontal_hessian_sym(group, u, x), axis1=-2, axis2=-1)


# --- gauge-radial calculus on H^d -------------------------------------------


@dataclass(frozen=True)
class HeisenbergRadialFrame:
    """Ingredients of the gauge-radial calculus on H^d at each point of a stack.

    ``eta / rho^3`` is the horizontal gradient of the gauge, and
    ``grad_norm_sq = |x_H|^2 / rho^2`` is its squared length (at most one).
    ``b_block``/``c_block`` are the d-by-d blocks assembling the rank-two
    angular part of the radial Hessian.
    """

    rho: np.ndarray
    grad_norm_sq: np.ndarray
    eta: np.ndarray
    b_block: np.ndarray
    c_block: np.ndarray


@dataclass(frozen=True)
class RadialProfile:
    """One-dimensional profile psi with its first two derivatives.

    ``smooth_radii`` marks where derivative formulas are trusted.
    """

    name: str
    psi: Callable[[np.ndarray], np.ndarray]
    psi_prime: Callable[[np.ndarray], np.ndarray]
    psi_second: Callable[[np.ndarray], np.ndarray]
    smooth_radii: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def radius_ok(self, r: np.ndarray) -> np.ndarray:
        if self.smooth_radii is None:
            return np.ones(np.shape(r), dtype=bool)
        return np.asarray(self.smooth_radii(np.asarray(r, dtype=float)))


@dataclass(frozen=True)
class RadialHessian:
    """Closed-form horizontal Hessians (..., 2d, 2d) of psi(rho) on H^d.

    Per point, the eigenvalue multiset is {radial, tangential, flat x (2d-2)}
    with

        radial     = psi''(rho) |Drho|^2,
        tangential = 3 psi'(rho) |Drho|^2 / rho,
        flat       = psi'(rho) |Drho|^2 / rho.
    """

    matrix: np.ndarray
    eigen_radial: np.ndarray
    eigen_tangential: np.ndarray
    eigen_flat: np.ndarray
    flat_multiplicity: int

    def eigenvalues(self) -> np.ndarray:
        """Full multisets, ascending, shape (..., 2d)."""
        vals = [self.eigen_radial, self.eigen_tangential]
        vals += [self.eigen_flat] * self.flat_multiplicity
        return np.sort(np.stack(vals, axis=-1), axis=-1)


def radial_frame(group: GroupDescriptor, x: np.ndarray) -> HeisenbergRadialFrame:
    """Gauge-radial frame of H^d at points (..., n); requires |x_H| > 0."""
    if group.heisenberg_d is None:
        raise SingularPointError(
            f"the gauge-radial frame needs a Heisenberg descriptor, not {group.name!r}"
        )
    d = group.heisenberg_d
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (group.n,):
        raise ValueError(f"expected points of length {group.n}, got shape {x.shape}")
    rho, h2, g = _gauge_parts(group, x)
    if np.any(h2 == 0.0):
        raise SingularPointError(
            "gauge-radial frame is singular where the horizontal part vanishes"
        )
    a, b, t = x[..., :d], x[..., d : 2 * d], x[..., -1]
    h2_, t_ = h2[..., None], t[..., None]
    return HeisenbergRadialFrame(
        rho=rho,
        grad_norm_sq=g,
        eta=np.concatenate([a * h2_ + b * t_, b * h2_ - a * t_], axis=-1),
        b_block=_outer(a, a) + _outer(b, b),
        c_block=_outer(a, b) - _outer(b, a),
    )


def radial_hessian(
    group: GroupDescriptor, profile: RadialProfile, x: np.ndarray
) -> RadialHessian:
    """Horizontal Hessians of psi(rho) at points (..., n), with eigenvalue components."""
    fr = radial_frame(group, x)
    if not np.all(profile.radius_ok(fr.rho)):
        raise DomainError(f"profile {profile.name!r} is not smooth at some rho in {fr.rho!r}")
    d = group.heisenberg_d
    rho, g = fr.rho, fr.grad_norm_sq
    psi1 = np.asarray(profile.psi_prime(rho), dtype=float)
    psi2 = np.asarray(profile.psi_second(rho), dtype=float)
    rho3 = np.float_power(rho, 3)

    angular = np.block([[fr.b_block, fr.c_block], [-fr.c_block, fr.b_block]])
    v = fr.eta / rho3[..., None]
    mat = (
        (psi1 * g / rho)[..., None, None] * np.eye(2 * d)
        + (2.0 * psi1 / rho3)[..., None, None] * angular
        + (psi2 - 3.0 * psi1 / rho)[..., None, None] * _outer(v, v)
    )
    mat = 0.5 * (mat + np.swapaxes(mat, -1, -2))
    return RadialHessian(
        matrix=mat,
        eigen_radial=psi2 * g,
        eigen_tangential=3.0 * psi1 * g / rho,
        eigen_flat=psi1 * g / rho,
        flat_multiplicity=2 * d - 2,
    )


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a[..., :, None] * b[..., None, :]


def radial_hessian_eigenvalues(
    group: GroupDescriptor, profile: RadialProfile, pts: np.ndarray
) -> np.ndarray:
    """Eigenvalue multisets of the radial Hessian at stacked points.

    Vectorized companion of ``radial_hessian`` returning shape (..., 2d)
    with columns (radial, tangential, flat, ..., flat).  Rows with a
    vanishing horizontal part come out as zero (the continuous extension).
    """
    if group.heisenberg_d is None:
        raise SingularPointError("radial eigenvalues need a Heisenberg descriptor")
    rho, _, g = _gauge_parts(group, pts)
    return _radial_eigenvalues(group.heisenberg_d, profile, rho, g)


def _radial_eigenvalues(
    d: int, profile: RadialProfile, rho: np.ndarray, g: np.ndarray
) -> np.ndarray:
    """``radial_hessian_eigenvalues`` on H^d from the gauge rho and |D rho|^2."""
    safe = rho > 0.0
    rho_safe = np.where(safe, rho, 1.0)
    psi1 = np.where(safe, np.asarray(profile.psi_prime(rho_safe), dtype=float), 0.0)
    psi2 = np.where(safe, np.asarray(profile.psi_second(rho_safe), dtype=float), 0.0)
    cols = [psi2 * g, 3.0 * psi1 * g / rho_safe]
    cols += [psi1 * g / rho_safe] * (2 * d - 2)
    return np.stack(cols, axis=-1)


def _gauge_field(
    group: GroupDescriptor,
    name: str,
    of_gauge: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    smooth_domain: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> ScalarField:
    """The field ``of_gauge(rho, h2, g)`` on H^d; ``evaluate`` gauges its points first."""
    if group.heisenberg_d is None:
        raise SingularPointError("gauge fields need a Heisenberg descriptor")
    return ScalarField(
        name=name,
        evaluate=lambda x: of_gauge(*_gauge_parts(group, x)),
        smooth_domain=smooth_domain,
        of_gauge=of_gauge,
    )


def field_from_profile(group: GroupDescriptor, profile: RadialProfile) -> ScalarField:
    """The gauge-radial field psi(rho(x)) without analytic callbacks.

    Deliberately evaluation-only so finite differences of the field remain
    an independent check of the closed-form radial Hessian.
    """

    def domain(x: np.ndarray) -> np.ndarray:
        rho, h2, _ = _gauge_parts(group, x)
        return (h2 > 0.0) & profile.radius_ok(rho)

    return _gauge_field(
        group,
        f"{profile.name}(rho)",
        lambda rho, h2, g: np.asarray(profile.psi(rho), dtype=float),
        smooth_domain=domain,
    )


def add_horizontal_quadratic(
    group: GroupDescriptor, u: ScalarField, coeff: float
) -> ScalarField:
    """u + (coeff/2) * sum_{i<=m} x_i^2.

    The added term has exact horizontal Hessian coeff * I_m, which shifts
    every Hessian eigenvalue by exactly coeff.
    """
    m, n = group.m, group.n
    coeff = float(coeff)

    def evaluate(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.asarray(u.evaluate(x), dtype=float) + 0.5 * coeff * np.sum(
            x[..., :m] ** 2, axis=-1
        )

    grad = None
    if u.euclid_gradient is not None:

        def grad(x: np.ndarray) -> np.ndarray:
            x = np.asarray(x, dtype=float)
            out = np.array(u.euclid_gradient(x), dtype=float, copy=True)
            out[..., :m] += coeff * x[..., :m]
            return out

    hess = None
    if u.euclid_hessian is not None:
        bump = np.zeros((n, n))
        bump[:m, :m] = coeff * np.eye(m)

        def hess(x: np.ndarray) -> np.ndarray:
            return np.asarray(u.euclid_hessian(x), dtype=float) + bump

    return ScalarField(
        name=f"{u.name}+{coeff}/2*|x_H|^2",
        evaluate=evaluate,
        euclid_gradient=grad,
        euclid_hessian=hess,
        smooth_domain=u.smooth_domain,
    )


# --- consistency self-tests --------------------------------------------------


# Callbacks agree with the stencil within atol + rtol * max(1, |value|).
_CALLBACK_RTOL, _CALLBACK_ATOL = 1e-6, 1e-8
# Step and relative tolerance of the one-dimensional profile check.
_PROFILE_STEP, _PROFILE_RTOL = 1e-4, 1e-6


def check_field_consistency(u: ScalarField, points: np.ndarray) -> dict:
    """Compare analytic derivative callbacks against finite differences.

    Returns a report dict; ``ok`` is False when any callback deviates from
    the differenced value beyond atol + rtol * scale.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    worst = []
    fd_pair = _fd_derivatives(u, points)
    for callback, fd in zip((u.euclid_gradient, u.euclid_hessian), fd_pair):
        a = fd if callback is None else np.asarray(callback(points), dtype=float)
        scale = _CALLBACK_ATOL + _CALLBACK_RTOL * np.maximum(1.0, np.abs(a))
        worst.append(float(np.max(np.abs(a - fd) / scale, initial=0.0)))
    worst_grad, worst_hess = worst
    return {
        "ok": worst_grad <= 1.0 and worst_hess <= 1.0,
        "gradient_excess": worst_grad,
        "hessian_excess": worst_hess,
    }


def check_profile_consistency(profile: RadialProfile, radii: np.ndarray) -> dict:
    """Verify psi_prime / psi_second against 1-D differences of psi."""
    radii = np.asarray(radii, dtype=float)
    ok_mask = profile.radius_ok(radii)
    r = radii[ok_mask]
    h = _PROFILE_STEP
    # fourth-order central differences in one dimension
    d1 = (
        profile.psi(r - 2 * h)
        - 8.0 * profile.psi(r - h)
        + 8.0 * profile.psi(r + h)
        - profile.psi(r + 2 * h)
    ) / (12.0 * h)
    d2 = (
        -profile.psi(r - 2 * h)
        + 16.0 * profile.psi(r - h)
        - 30.0 * profile.psi(r)
        + 16.0 * profile.psi(r + h)
        - profile.psi(r + 2 * h)
    ) / (12.0 * h**2)
    e1 = np.max(
        np.abs(d1 - profile.psi_prime(r)) / np.maximum(1.0, np.abs(profile.psi_prime(r)))
    )
    e2 = np.max(
        np.abs(d2 - profile.psi_second(r))
        / np.maximum(1.0, np.abs(profile.psi_second(r)))
    )
    ok = bool(e1 <= _PROFILE_RTOL and e2 <= _PROFILE_RTOL)
    return {"ok": ok, "prime_err": float(e1), "second_err": float(e2)}
