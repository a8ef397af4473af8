"""Horizontal differential calculus along the frame of H^d.

Horizontal Hessians come from a field's horizontal Hessian callback when
it carries one, and otherwise from central second differences of the
field along the frame directions at each point; the frame coefficients
are exact, so differencing only ever touches the scalar field itself.

The radial part implements the closed-form horizontal Hessian of gauge
functions psi(rho) on H^d, including its full eigenvalue multiset.
A single point is the one-element case of a stack of points (..., n).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .group import GroupDescriptor, _dot, _frame_t, _gauge, _gauge_parts, _points

__all__ = [
    "DomainError",
    "SingularPointError",
    "ScalarField",
    "RadialProfile",
    "horizontal_hessian_sym",
    "sublaplacian",
    "radial_hessian",
    "field_from_profile",
]


class DomainError(ValueError):
    """Point lies outside a field's smooth domain."""


class SingularPointError(DomainError):
    """Point lies on the singular set of a gauge-radial quantity."""


# --- finite differences ----------------------------------------------------

# The one stencil: the fourth-order central second difference, offset ->
# coefficient over h^2, with step 1e-3 * max(1, |x|_inf) and
# Richardson-extrapolated from h and h/2, along frame directions at x.
_D2 = ((-2, -1.0 / 12.0), (-1, 4.0 / 3.0), (0, -5.0 / 2.0), (1, 4.0 / 3.0), (2, -1.0 / 12.0))
_FD_STEP = 1e-3


@dataclass(frozen=True)
class ScalarField:
    """A scalar function with an optional horizontal Hessian callback.

    ``evaluate`` must accept stacked points (..., n) in any memory layout,
    column-major views included, and return shape (...), or (F..., ...)
    for F... values per point, which one stencil pass differences
    together; it must not keep the points, as the stencil reuses its
    buffer.  ``horizontal_hessian``, when present, maps points (..., n) to
    their symmetrized horizontal Hessians (..., m, m) and is trusted in
    place of finite differences of ``evaluate``.
    ``smooth_domain`` is a vectorized predicate for where derivative
    queries are legitimate (None means everywhere).  A field that is a
    function of the gauge on H^d carries ``of_gauge(rho, h2, g)``, mapping
    the stacks of ``group._gauge_parts`` to values and keeping none of them;
    its ``evaluate`` then gives the values of ``of_gauge`` on the gauge of
    its points, so a caller holding the gauge need not recompute it.
    """

    name: str
    evaluate: Callable[[np.ndarray], np.ndarray]
    horizontal_hessian: Optional[Callable[[np.ndarray], np.ndarray]] = None
    smooth_domain: Optional[Callable[[np.ndarray], np.ndarray]] = None
    of_gauge: Optional[Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]] = None

    def in_domain(self, x: np.ndarray) -> np.ndarray:
        if self.smooth_domain is None:
            return np.ones(np.asarray(x).shape[:-1], dtype=bool)
        return np.asarray(self.smooth_domain(np.asarray(x, dtype=float)))


# Rounds of the one rejection loop before it gives up.
_MAX_ROUNDS = 10000


def _rejection_sample(
    draw: Callable[[int, np.random.Generator], np.ndarray],
    keep: Callable[[np.ndarray], np.ndarray],
    count: int,
    rng: np.random.Generator,
    batch_floor: int = 1,
) -> np.ndarray:
    """The first `count` rows of ``draw(k, rng)`` that pass ``keep(rows)``, in draw order.

    Each round draws max(missing, batch_floor) rows; the floor fixes which
    draws land in which sample, so changing it changes reports.  Raises
    RuntimeError when rows are still missing after _MAX_ROUNDS rounds.
    """
    kept, missing = [], count
    for _ in range(_MAX_ROUNDS):
        rows = np.asarray(draw(max(missing, batch_floor), rng), dtype=float)
        kept.append(np.compress(keep(rows), rows, axis=0)[:missing])
        missing -= len(kept[-1])
        if missing == 0:
            return np.concatenate(kept)
    raise RuntimeError(
        f"rejection sampling kept {count - missing} of {count} rows in {_MAX_ROUNDS} rounds"
    )


def _require_in_domain(u: ScalarField, x: np.ndarray) -> None:
    bad = ~np.asarray(u.in_domain(x), dtype=bool)
    if bad.any():
        raise DomainError(f"point {x[bad][0]!r} is outside the smooth domain of {u.name!r}")


# Points per stencil evaluation: memory stays bounded whatever the stack size.
_FD_CHUNK = 32


@functools.cache
def _fd_stencil(d: int) -> tuple[np.ndarray, ...]:
    """The stencil on H^d: (steps, offsets, dirs, index, rows, cols, layout).

    Its D = m^2 directions are sigma_i, then sigma_i + sigma_j and then
    sigma_i - sigma_j over the pairs (rows[p], cols[p]), rows[p] < cols[p].
    In units of h, level h takes the offsets 0, +-1, +-2 along each and
    level h/2 the offsets 0, +-0.5, +-1, so a point has U = 6D + 1 distinct
    rows: its centre, then the nonzero ``offsets`` (U,) along each
    direction ``dirs`` (U,) in turn.  ``index`` (2, D, 5) puts each back in
    its (level, direction, _D2 offset) place, ``steps`` (m, U) holds the
    rows' horizontal parts in units of h, constant as the frame's are, and
    ``layout`` (m, m) places the diagonal and pairs; shared, so read-only.
    """
    m = 2 * d
    rows, cols = np.triu_indices(m, 1)
    eye, units = np.eye(m), (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)
    offsets = np.array((0.0,) + units * m * m)
    dirs = np.concatenate([[0], np.repeat(np.arange(m * m), len(units))])
    steps = offsets * np.vstack([eye, eye[rows] + eye[cols], eye[rows] - eye[cols]])[dirs].T
    unit = np.outer([1.0, 0.5], [off for off, _ in _D2])[:, None, :]
    column = 1 + np.searchsorted(units, unit) + 6 * np.arange(m * m)[:, None]
    index = np.where(unit != 0.0, column, 0)
    layout = np.diag(np.arange(m))
    layout[rows, cols] = layout[cols, rows] = m + np.arange(len(rows))
    parts = (steps, offsets, dirs, index, rows, cols, layout)
    for part in parts:
        part.flags.writeable = False
    return parts


def _horizontal_fd(group: GroupDescriptor, u: ScalarField, x: np.ndarray) -> np.ndarray:
    """Symmetrized horizontal Hessians of u by differences along the frame; (F..., ..., m, m).

    The second difference Q(v) of u along a fixed vector v is v^T D^2u v,
    so the frame at x gives the diagonal Q(sigma_i) and, by polarization,
    the rest, (Q(sigma_i + sigma_j) - Q(sigma_i - sigma_j)) / 4: the
    symmetric part of sigma^T D^2u sigma.  F... are the value axes of
    ``u.evaluate`` (none for a scalar field), so F fields sharing one
    ``evaluate`` are differenced in one pass.  A chunk's distinct stencil
    points, x and x + (s h) v at offset s along v, are laid out coordinate
    by coordinate in one buffer reused across chunks, and ``u.evaluate``
    gets its (points, n) transpose.  Each point's values are gathered back
    into both levels and combined by BLAS dots of their own, so its bits do
    not depend on the stack, the chunking or the other fields.  An empty
    stack is still evaluated once, for the value axes.
    """
    d, m, n = group.heisenberg_d, group.m, group.n
    steps, offsets, dirs, index, rows, cols, layout = _fd_stencil(d)
    flat = x.reshape(-1, n)
    buf = np.empty((n, _FD_CHUNK, len(offsets)))
    for lo in range(0, max(len(flat), 1), _FD_CHUNK):
        xc = flat[lo : lo + _FD_CHUNK]
        hc = _FD_STEP * np.maximum(1.0, np.max(np.abs(xc), axis=-1, keepdims=True))
        pts = buf[:, : len(xc)]
        np.multiply(hc, steps[:, None, :], out=pts[:m])
        # t parts: the frame's t row and its pair sums, times h and then the offsets,
        # which are powers of two, so each entry rounds once, as (s h) v does.
        tau = _frame_t(group, xc)
        tau = np.concatenate([tau, tau[:, rows] + tau[:, cols], tau[:, rows] - tau[:, cols]], 1)
        np.multiply(np.take(tau * hc, dirs, axis=1), offsets, out=pts[m])
        pts += xc.T[:, :, None]
        pts[:, :, 0] = xc.T
        vals = np.asarray(u.evaluate(pts.reshape(n, -1).T), dtype=float)
        lead = vals.shape[:-1]
        # take copies: contiguous values, as a strided operand changes how _dot sums.
        vals = np.take(vals.reshape(lead + pts.shape[1:]), index, axis=-1)
        # The C library's pow, as a scalar h**2, at h and h/2.
        h2 = np.float_power(hc * [1.0, 0.5], 2)[..., None]
        q = _dot(vals, np.array([c for _, c in _D2])) / h2
        # Richardson on each direction: the fourth-order error of h against h/2 cancels.
        q = (16.0 * q[..., 1, :] - q[..., 0, :]) / 15.0
        q[..., m : m + len(rows)] = (q[..., m : m + len(rows)] - q[..., m + len(rows) :]) / 4.0
        if lo == 0:
            hess = np.empty(lead + (len(flat), m, m))
        hess[..., lo : lo + len(xc), :, :] = np.take(q, layout, axis=-1)
    return hess.reshape(lead + x.shape[:-1] + (m, m))


# --- horizontal derivatives ------------------------------------------------


def horizontal_hessian_sym(group: GroupDescriptor, u: ScalarField, x: np.ndarray) -> np.ndarray:
    """Symmetrized horizontal Hessians ((X_i X_j + X_j X_i) u / 2).

    Takes points (..., n) and returns shape (F..., ..., m, m), the symmetric
    part of sigma^T D^2u sigma.  When u has ``horizontal_hessian``, that is
    its output as floats, trusted, and no frame is built; else it comes
    from differences along the frame, with the value axes F... of the
    stencil field (see ``_horizontal_fd``).  The first-order part of
    X_i X_j u is 2 u_t in the (i+d, i) slot and -2 u_t in (i, i+d):
    antisymmetric, so the symmetrization removes it exactly.  ValueError
    names the first point with a non-finite coordinate.
    """
    x = _points(group, x)
    bad = ~np.isfinite(x).all(axis=-1)
    if bad.any():
        raise ValueError(f"point {x[bad][0]!r} is not finite")
    _require_in_domain(u, x)
    if u.horizontal_hessian is None:
        return _horizontal_fd(group, u, x)
    return np.asarray(u.horizontal_hessian(x), dtype=float)


def sublaplacian(group: GroupDescriptor, u: ScalarField, x: np.ndarray) -> np.ndarray:
    """Trace of the symmetrized horizontal Hessian, i.e. sum_j X_j^2 u; shape (...)."""
    return np.trace(horizontal_hessian_sym(group, u, x), axis1=-2, axis2=-1)


# --- gauge-radial calculus on H^d -------------------------------------------


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

    Per point, the eigenvalue multiset is {radial, tangential, flat x (2d-2)}, on
    the eigenvectors grad_H rho, J grad_H rho and the rest.
    """

    matrix: np.ndarray
    eigen_radial: np.ndarray
    eigen_tangential: np.ndarray
    eigen_flat: np.ndarray
    flat_multiplicity: int


def _radial_components(
    psi1: np.ndarray, psi2: np.ndarray, rho: np.ndarray, g: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(radial, tangential, flat) = (psi'' g, 3 psi' g / rho, psi' g / rho), g = |D rho|^2."""
    return psi2 * g, 3.0 * psi1 * g / rho, psi1 * g / rho


def radial_hessian(
    group: GroupDescriptor, profile: RadialProfile, x: np.ndarray
) -> RadialHessian:
    """Horizontal Hessians of psi(rho) at points (..., n), with eigenvalue components.

    With h2 = |x_H|^2 and tau the frame's t row, the eigenvectors
    v = grad_H rho = (h2 x_H + (t/2) tau) / rho^3 and w = J grad_H rho =
    (h2 tau/2 - t x_H) / rho^3 are orthogonal with |v|^2 = |w|^2 = g, so the
    Hessian is flat I + (psi'' - psi'/rho) v v^T + (2 psi'/rho) w w^T, exactly
    symmetric.  Raises SingularPointError where x_H = 0 and DomainError where
    the profile is not smooth.
    """
    x = _points(group, x)
    rho, h2, g = _gauge_parts(group, x)
    if np.any(h2 == 0.0):
        raise SingularPointError(
            "gauge-radial frame is singular where the horizontal part vanishes"
        )
    if not np.all(profile.radius_ok(rho)):
        raise DomainError(f"profile {profile.name!r} is not smooth at some rho in {rho!r}")
    psi1 = np.asarray(profile.psi_prime(rho), dtype=float)
    psi2 = np.asarray(profile.psi_second(rho), dtype=float)
    radial, tangential, flat = _radial_components(psi1, psi2, rho, g)

    xh, t, tau = x[..., : group.m], x[..., -1:], _frame_t(group, x)
    h2_, rho3 = h2[..., None], np.float_power(rho, 3)[..., None]
    v = (h2_ * xh + 0.5 * t * tau) / rho3
    w = (0.5 * h2_ * tau - t * xh) / rho3
    psi1_rho = psi1 / rho
    mat = (
        flat[..., None, None] * np.eye(group.m)
        + (psi2 - psi1_rho)[..., None, None] * _outer(v, v)
        + (2.0 * psi1_rho)[..., None, None] * _outer(w, w)
    )
    return RadialHessian(mat, radial, tangential, flat, flat_multiplicity=group.m - 2)


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a[..., :, None] * b[..., None, :]


def _radial_eigenvalues(
    d: int, profile: RadialProfile, rho: np.ndarray, g: np.ndarray
) -> np.ndarray:
    """Eigenvalue multisets (..., 2d) of the radial Hessian from the gauge rho and |D rho|^2.

    Columns are (radial, tangential, flat, ..., flat), the components of
    ``radial_hessian``; rows with rho = 0 come out as zero.
    """
    safe = rho > 0.0
    rho_safe = np.where(safe, rho, 1.0)
    psi1 = np.where(safe, np.asarray(profile.psi_prime(rho_safe), dtype=float), 0.0)
    psi2 = np.where(safe, np.asarray(profile.psi_second(rho_safe), dtype=float), 0.0)
    radial, tangential, flat = _radial_components(psi1, psi2, rho_safe, g)
    return np.stack([radial, tangential] + [flat] * (2 * d - 2), axis=-1)


def _gauge_field(
    group: GroupDescriptor,
    name: str,
    of_gauge: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
) -> ScalarField:
    """The field ``of_gauge(rho, h2, g)`` on H^d; ``evaluate`` gauges its points first."""
    return ScalarField(
        name=name,
        evaluate=lambda x: of_gauge(*_gauge_parts(group, x)),
        of_gauge=of_gauge,
    )


def field_from_profile(group: GroupDescriptor, profile: RadialProfile) -> ScalarField:
    """The gauge-radial field psi(rho(x)) without analytic callbacks.

    Deliberately evaluation-only so finite differences of the field remain
    an independent check of the closed-form radial Hessian.  It reads rho
    alone, so neither ``evaluate``, which is every stencil evaluation, nor
    the smooth domain computes |D rho|^2.
    """

    def psi(rho: np.ndarray, *_: np.ndarray) -> np.ndarray:
        return np.asarray(profile.psi(rho), dtype=float)

    def domain(x: np.ndarray) -> np.ndarray:
        rho, h2 = _gauge(group, x)
        return (h2 > 0.0) & profile.radius_ok(rho)

    return ScalarField(
        name=f"{profile.name}(rho)",
        evaluate=lambda x: psi(_gauge(group, x)[0]),
        smooth_domain=domain,
        of_gauge=psi,
    )
