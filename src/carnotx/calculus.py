"""Horizontal differential calculus along a Carnot frame.

Euclidean partials come from analytic callbacks when a field carries them
and from central finite differences otherwise; the frame coefficients and
their partials are always exact polynomials supplied by the group
descriptor.  Differencing therefore never touches sigma, only the scalar
field itself.

The radial part implements the closed-form horizontal Hessian of gauge
functions psi(rho) on H^d, including its full eigenvalue multiset.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .group import GroupDescriptor, _gauge_parts, homogeneous_norm

__all__ = [
    "DomainError",
    "SingularPointError",
    "FDScheme",
    "DEFAULT_SCHEME",
    "ScalarField",
    "RadialProfile",
    "HeisenbergRadialFrame",
    "RadialHessian",
    "euclid_gradient",
    "euclid_hessian",
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

# offset -> coefficient tables for central stencils; first-derivative
# coefficients are divided by h, second-derivative ones by h^2.
_D1 = {
    2: ((-1, -0.5), (1, 0.5)),
    4: ((-2, 1.0 / 12.0), (-1, -2.0 / 3.0), (1, 2.0 / 3.0), (2, -1.0 / 12.0)),
}
_D2 = {
    2: ((-1, 1.0), (0, -2.0), (1, 1.0)),
    4: (
        (-2, -1.0 / 12.0),
        (-1, 4.0 / 3.0),
        (0, -5.0 / 2.0),
        (1, 4.0 / 3.0),
        (2, -1.0 / 12.0),
    ),
}


@dataclass(frozen=True)
class FDScheme:
    """Central finite-difference scheme.

    The effective step at a point is ``base_step * max(1, |x|_inf)``.  With
    ``richardson`` the stencil is evaluated at h and h/2 and extrapolated,
    raising the order by two.
    """

    base_step: float = 1e-3
    order: int = 4
    richardson: bool = True

    def __post_init__(self) -> None:
        if not self.base_step > 0.0:
            raise ValueError(f"base step must be positive, got {self.base_step}")
        if self.order not in (2, 4):
            raise ValueError(f"order must be 2 or 4, got {self.order}")

    def step_at(self, x: np.ndarray) -> float:
        return self.base_step * max(1.0, float(np.max(np.abs(x))))


DEFAULT_SCHEME = FDScheme()


@dataclass(frozen=True)
class ScalarField:
    """A scalar function with optional analytic derivative callbacks.

    ``evaluate`` must accept stacked points of shape (..., n) and return
    shape (...).  When gradient or Hessian callbacks are present they are
    trusted; ``check_field_consistency`` verifies them against finite
    differences of ``evaluate``.  ``smooth_domain`` is a vectorized
    predicate for where derivative queries are legitimate (None means
    everywhere).
    """

    name: str
    evaluate: Callable[[np.ndarray], np.ndarray]
    euclid_gradient: Optional[Callable[[np.ndarray], np.ndarray]] = None
    euclid_hessian: Optional[Callable[[np.ndarray], np.ndarray]] = None
    smooth_domain: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def in_domain(self, x: np.ndarray) -> np.ndarray:
        if self.smooth_domain is None:
            return np.ones(np.asarray(x).shape[:-1], dtype=bool)
        return np.asarray(self.smooth_domain(np.asarray(x, dtype=float)))


def _sample_admissible(
    u: ScalarField,
    sampler: Callable[[int, np.random.Generator], np.ndarray],
    count: int,
    rng: np.random.Generator,
    max_retries: int = 20,
) -> np.ndarray:
    """Draw sampler points, redrawing those outside u's smooth domain.

    Gives up with RuntimeError when points are still outside after
    ``max_retries`` redraws.
    """
    pts = np.asarray(sampler(count, rng), dtype=float)
    bad = ~u.in_domain(pts)
    for _ in range(max_retries):
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
    if not bool(np.all(u.in_domain(x))):
        raise DomainError(f"point {x!r} is outside the smooth domain of {u.name!r}")


def _gradient_fd_once(u: ScalarField, x: np.ndarray, h: float, order: int) -> np.ndarray:
    n = x.shape[0]
    table = _D1[order]
    pts = np.stack([x + off * h * _unit(n, k) for k in range(n) for off, _ in table])
    vals = np.asarray(u.evaluate(pts), dtype=float).reshape(n, len(table))
    coeffs = np.array([c for _, c in table])
    return vals @ coeffs / h


def _hessian_fd_once(u: ScalarField, x: np.ndarray, h: float, order: int) -> np.ndarray:
    n = x.shape[0]
    diag_table = _D2[order]
    mix_table = _D1[order]
    pts: list[np.ndarray] = []
    for k in range(n):
        for off, _ in diag_table:
            pts.append(x + off * h * _unit(n, k))
    for k in range(n):
        for l in range(k + 1, n):
            for off_a, _ in mix_table:
                for off_b, _ in mix_table:
                    pts.append(x + h * (off_a * _unit(n, k) + off_b * _unit(n, l)))
    vals = np.asarray(u.evaluate(np.stack(pts)), dtype=float)

    hess = np.empty((n, n))
    pos = 0
    d_coeffs = np.array([c for _, c in diag_table])
    for k in range(n):
        hess[k, k] = vals[pos : pos + len(diag_table)] @ d_coeffs / h**2
        pos += len(diag_table)
    m_coeffs = np.array([ca * cb for _, ca in mix_table for _, cb in mix_table])
    for k in range(n):
        for l in range(k + 1, n):
            block = vals[pos : pos + len(m_coeffs)]
            hess[k, l] = hess[l, k] = block @ m_coeffs / h**2
            pos += len(m_coeffs)
    return hess


def _unit(n: int, k: int) -> np.ndarray:
    e = np.zeros(n)
    e[k] = 1.0
    return e


def _richardson(coarse: np.ndarray, fine: np.ndarray, order: int) -> np.ndarray:
    w = 2.0**order
    return (w * fine - coarse) / (w - 1.0)


def euclid_gradient(
    u: ScalarField, x: np.ndarray, scheme: FDScheme = DEFAULT_SCHEME
) -> np.ndarray:
    """Euclidean gradient at a single point, analytic when available."""
    x = np.asarray(x, dtype=float)
    if u.euclid_gradient is not None:
        return np.asarray(u.euclid_gradient(x), dtype=float)
    h = scheme.step_at(x)
    g = _gradient_fd_once(u, x, h, scheme.order)
    if scheme.richardson:
        g = _richardson(g, _gradient_fd_once(u, x, h / 2.0, scheme.order), scheme.order)
    return g


def euclid_hessian(
    u: ScalarField, x: np.ndarray, scheme: FDScheme = DEFAULT_SCHEME
) -> np.ndarray:
    """Euclidean Hessian at a single point, analytic when available."""
    x = np.asarray(x, dtype=float)
    if u.euclid_hessian is not None:
        return np.asarray(u.euclid_hessian(x), dtype=float)
    h = scheme.step_at(x)
    hess = _hessian_fd_once(u, x, h, scheme.order)
    if scheme.richardson:
        hess = _richardson(
            hess, _hessian_fd_once(u, x, h / 2.0, scheme.order), scheme.order
        )
    return hess


# --- horizontal derivatives ------------------------------------------------


def horizontal_gradient(
    group: GroupDescriptor,
    u: ScalarField,
    x: np.ndarray,
    scheme: FDScheme = DEFAULT_SCHEME,
) -> np.ndarray:
    """(X_1 u, ..., X_m u) at x."""
    x = np.asarray(x, dtype=float)
    _require_in_domain(u, x)
    grad = euclid_gradient(u, x, scheme)
    sigma = np.asarray(group.sigma_eval(x), dtype=float)
    return sigma.T @ grad


def horizontal_hessian_sym(
    group: GroupDescriptor,
    u: ScalarField,
    x: np.ndarray,
    scheme: FDScheme = DEFAULT_SCHEME,
) -> np.ndarray:
    """Symmetrized horizontal Hessian ((X_i X_j + X_j X_i) u / 2).

    Assembled as sigma^T D^2u sigma plus the symmetrized first-order
    correction carrying the exact polynomial partials of sigma; the result
    is exactly symmetric.
    """
    x = np.asarray(x, dtype=float)
    _require_in_domain(u, x)
    grad = euclid_gradient(u, x, scheme)
    hess = euclid_hessian(u, x, scheme)
    sigma = np.asarray(group.sigma_eval(x), dtype=float)
    jac = np.asarray(group.sigma_jacobian_eval(x), dtype=float)
    main = sigma.T @ hess @ sigma
    # first-order term: T_ij = sum_{l,k} sigma_li (d_l sigma_kj) (d_k u)
    first = np.einsum("li,lkj,k->ij", sigma, jac, grad)
    out = main + 0.5 * (first + first.T)
    return 0.5 * (out + out.T)


def sublaplacian(
    group: GroupDescriptor,
    u: ScalarField,
    x: np.ndarray,
    scheme: FDScheme = DEFAULT_SCHEME,
) -> float:
    """Trace of the symmetrized horizontal Hessian, i.e. sum_j X_j^2 u."""
    return float(np.trace(horizontal_hessian_sym(group, u, x, scheme)))


# --- gauge-radial calculus on H^d -------------------------------------------


@dataclass(frozen=True)
class HeisenbergRadialFrame:
    """Pointwise ingredients of the gauge-radial calculus on H^d.

    ``eta / rho^3`` is the horizontal gradient of the gauge, and
    ``grad_norm_sq = |x_H|^2 / rho^2`` is its squared length (at most one).
    ``b_block``/``c_block`` are the d-by-d blocks assembling the rank-two
    angular part of the radial Hessian.
    """

    rho: float
    horizontal_sq: float
    grad_norm_sq: float
    eta: np.ndarray
    b_block: np.ndarray
    c_block: np.ndarray


@dataclass(frozen=True)
class RadialProfile:
    """One-dimensional profile psi with its first two derivatives.

    ``smooth_radii`` marks where derivative formulas are trusted; a profile
    spliced at some radius exposes it via ``splice_radius`` (queries exactly
    there resolve to the outer branch).
    """

    name: str
    psi: Callable[[np.ndarray], np.ndarray]
    psi_prime: Callable[[np.ndarray], np.ndarray]
    psi_second: Callable[[np.ndarray], np.ndarray]
    smooth_radii: Optional[Callable[[np.ndarray], np.ndarray]] = None
    splice_radius: Optional[float] = None

    def radius_ok(self, r: np.ndarray) -> np.ndarray:
        if self.smooth_radii is None:
            return np.ones(np.shape(r), dtype=bool)
        return np.asarray(self.smooth_radii(np.asarray(r, dtype=float)))


@dataclass(frozen=True)
class RadialHessian:
    """Closed-form horizontal Hessian of psi(rho) at a point of H^d.

    The eigenvalue multiset is {radial, tangential, flat x (2d-2)} with

        radial     = psi''(rho) |Drho|^2,
        tangential = 3 psi'(rho) |Drho|^2 / rho,
        flat       = psi'(rho) |Drho|^2 / rho.
    """

    matrix: np.ndarray
    eigen_radial: float
    eigen_tangential: float
    eigen_flat: float
    flat_multiplicity: int

    def eigenvalues(self) -> np.ndarray:
        """Full multiset, ascending."""
        vals = [self.eigen_radial, self.eigen_tangential]
        vals += [self.eigen_flat] * self.flat_multiplicity
        return np.sort(np.array(vals))


def radial_frame(group: GroupDescriptor, x: np.ndarray) -> HeisenbergRadialFrame:
    """Gauge-radial frame of H^d at x; requires |x_H| > 0."""
    if group.heisenberg_d is None:
        raise SingularPointError(
            f"the gauge-radial frame needs a Heisenberg descriptor, not {group.name!r}"
        )
    d = group.heisenberg_d
    x = np.asarray(x, dtype=float)
    if x.shape != (group.n,):
        raise ValueError(f"expected a single point of length {group.n}")
    a, b, t = x[:d], x[d : 2 * d], x[-1]
    h2 = float(a @ a + b @ b)
    if h2 == 0.0:
        raise SingularPointError(
            "gauge-radial frame is singular where the horizontal part vanishes"
        )
    rho = (h2**2 + t**2) ** 0.25
    eta = np.concatenate([a * h2 + b * t, b * h2 - a * t])
    return HeisenbergRadialFrame(
        rho=rho,
        horizontal_sq=h2,
        grad_norm_sq=h2 / rho**2,
        eta=eta,
        b_block=np.outer(a, a) + np.outer(b, b),
        c_block=np.outer(a, b) - np.outer(b, a),
    )


def radial_hessian(
    group: GroupDescriptor, profile: RadialProfile, x: np.ndarray
) -> RadialHessian:
    """Horizontal Hessian of psi(rho) with its eigenvalue components."""
    fr = radial_frame(group, x)
    if not bool(np.all(profile.radius_ok(fr.rho))):
        raise DomainError(
            f"profile {profile.name!r} is not smooth at rho={fr.rho!r}"
        )
    d = group.heisenberg_d
    psi1 = float(profile.psi_prime(np.float64(fr.rho)))
    psi2 = float(profile.psi_second(np.float64(fr.rho)))
    rho, g = fr.rho, fr.grad_norm_sq

    angular = np.block([[fr.b_block, fr.c_block], [-fr.c_block, fr.b_block]])
    v = fr.eta / rho**3
    mat = (
        (psi1 * g / rho) * np.eye(2 * d)
        + (2.0 * psi1 / rho**3) * angular
        + (psi2 - 3.0 * psi1 / rho) * np.outer(v, v)
    )
    mat = 0.5 * (mat + mat.T)
    return RadialHessian(
        matrix=mat,
        eigen_radial=psi2 * g,
        eigen_tangential=3.0 * psi1 * g / rho,
        eigen_flat=psi1 * g / rho,
        flat_multiplicity=2 * d - 2,
    )


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
    d = group.heisenberg_d
    rho, _, g = _gauge_parts(group, pts)
    safe = rho > 0.0
    rho_safe = np.where(safe, rho, 1.0)
    psi1 = np.where(safe, np.asarray(profile.psi_prime(rho_safe), dtype=float), 0.0)
    psi2 = np.where(safe, np.asarray(profile.psi_second(rho_safe), dtype=float), 0.0)
    cols = [psi2 * g, 3.0 * psi1 * g / rho_safe]
    cols += [psi1 * g / rho_safe] * (2 * d - 2)
    return np.stack(cols, axis=-1)


def field_from_profile(
    group: GroupDescriptor, profile: RadialProfile, name: Optional[str] = None
) -> ScalarField:
    """The gauge-radial field psi(rho(x)) without analytic callbacks.

    Deliberately evaluation-only so finite differences of the field remain
    an independent check of the closed-form radial Hessian.
    """
    if group.heisenberg_d is None:
        raise SingularPointError("radial fields need a Heisenberg descriptor")

    def evaluate(x: np.ndarray) -> np.ndarray:
        return np.asarray(
            profile.psi(homogeneous_norm(group, x)), dtype=float
        )

    def domain(x: np.ndarray) -> np.ndarray:
        rho, h2, _ = _gauge_parts(group, x)
        return (h2 > 0.0) & profile.radius_ok(rho)

    return ScalarField(
        name=name or f"{profile.name}(rho)",
        evaluate=evaluate,
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


def check_field_consistency(
    u: ScalarField,
    points: np.ndarray,
    scheme: FDScheme = DEFAULT_SCHEME,
    rtol: float = 1e-6,
    atol: float = 1e-8,
) -> dict:
    """Compare analytic derivative callbacks against finite differences.

    Returns a report dict; ``ok`` is False when any callback deviates from
    the differenced value beyond atol + rtol * scale.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    fd_only = ScalarField(name=u.name, evaluate=u.evaluate)
    worst_grad = worst_hess = 0.0
    for x in points:
        if u.euclid_gradient is not None:
            a = np.asarray(u.euclid_gradient(x), dtype=float)
            b = euclid_gradient(fd_only, x, scheme)
            worst_grad = max(
                worst_grad,
                float(np.max(np.abs(a - b) / (atol + rtol * np.maximum(1.0, np.abs(a))))),
            )
        if u.euclid_hessian is not None:
            a = np.asarray(u.euclid_hessian(x), dtype=float)
            b = euclid_hessian(fd_only, x, scheme)
            worst_hess = max(
                worst_hess,
                float(np.max(np.abs(a - b) / (atol + rtol * np.maximum(1.0, np.abs(a))))),
            )
    return {
        "ok": worst_grad <= 1.0 and worst_hess <= 1.0,
        "gradient_excess": worst_grad,
        "hessian_excess": worst_hess,
    }


def check_profile_consistency(
    profile: RadialProfile,
    radii: np.ndarray,
    h: float = 1e-4,
    rtol: float = 1e-6,
) -> dict:
    """Verify psi_prime / psi_second against 1-D differences of psi."""
    radii = np.asarray(radii, dtype=float)
    ok_mask = profile.radius_ok(radii)
    r = radii[ok_mask]
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
    return {"ok": bool(e1 <= rtol and e2 <= rtol), "prime_err": float(e1), "second_err": float(e2)}
