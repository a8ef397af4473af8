"""Horizontal differential calculus along the frame of H^d.

Euclidean Hessians come from an analytic callback when a field carries one
and from central finite differences otherwise; the frame coefficients are
exact, so differencing only ever touches the scalar field itself.

The radial part implements the closed-form horizontal Hessian of gauge
functions psi(rho) on H^d, including its full eigenvalue multiset.
A single point is the one-element case of a stack of points (..., n).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .group import GroupDescriptor, _dot, _frame, _gauge, _gauge_parts, _points

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

# The one stencil: fourth-order central differences with step
# 1e-3 * max(1, |x|_inf), Richardson-extrapolated from h and h/2.
# Offset -> coefficient tables: the second-derivative one gives the diagonal
# entries, products of first-derivative ones the mixed entries, all over h^2.
_D1 = ((-2, 1.0 / 12.0), (-1, -2.0 / 3.0), (1, 2.0 / 3.0), (2, -1.0 / 12.0))
_D2 = ((-2, -1.0 / 12.0), (-1, 4.0 / 3.0), (0, -5.0 / 2.0), (1, 4.0 / 3.0), (2, -1.0 / 12.0))
_FD_STEP = 1e-3


@dataclass(frozen=True)
class ScalarField:
    """A scalar function with an optional analytic Hessian callback.

    ``evaluate`` must accept stacked points (..., n) in any memory layout,
    column-major views included, and return shape (...), or (F..., ...)
    for F... values per point, which one stencil pass differences
    together; it must not keep the points, as the stencil reuses its
    buffer.  A Hessian callback, when present, is trusted in place of
    finite differences of ``evaluate``.
    ``smooth_domain`` is a vectorized predicate for where derivative
    queries are legitimate (None means everywhere).  A field that is a
    function of the gauge on H^d carries ``of_gauge(rho, h2, g)``, mapping
    the stacks of ``group._gauge_parts`` to values and keeping none of them;
    its ``evaluate`` then gives the values of ``of_gauge`` on the gauge of
    its points, so a caller holding the gauge need not recompute it.
    """

    name: str
    evaluate: Callable[[np.ndarray], np.ndarray]
    euclid_hessian: Optional[Callable[[np.ndarray], np.ndarray]] = None
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
_FD_CHUNK = 16


@functools.cache
def _fd_stencil(n: int) -> tuple[np.ndarray, ...]:
    """The stencil for points of length n: (steps (n, U), index, c2, c_mix, rows, cols).

    The stencil has K rows per level, at steps h and h/2: axis rows at the
    second-derivative offsets, then rows at products of first-derivative
    offsets for each pair (rows[p], cols[p]), rows[p] < cols[p].  Columns of
    ``steps`` are its U distinct rows in units of h, ``offset / 2`` on the
    h/2 level; ``index`` (2K,) puts each back in its (level, row) place.
    The h/2 level's offsets +-2 are the h level's +-1 and the centre
    repeats 2n times, so U = 1 + 6n + 28 n(n-1)/2 of 2K = 10n + 16 n(n-1).
    Products of h with 0, +-0.5, +-1 and +-2 are exact, so h * step has the
    bits of the level's step times its offset, and a point x + h * step
    the bits of the stencil row it stands for.  The arrays are shared
    between calls, so they are read-only.
    """
    pairs = [(k, l) for k in range(n) for l in range(k + 1, n)]
    eye = np.eye(n)
    table = np.array(
        [off * eye[k] for k in range(n) for off, _ in _D2]
        + [oa * eye[k] + ob * eye[l] for k, l in pairs for oa, _ in _D1 for ob, _ in _D1]
    )
    both = np.vstack([table, 0.5 * table])
    # Keyed by bytes, so that steps differing in the sign of a zero stay apart.
    first: dict[bytes, int] = {}
    index = np.array([first.setdefault(step.tobytes(), len(first)) for step in both])
    steps = both[np.unique(index, return_index=True)[1]]
    c2 = np.array([c for _, c in _D2])
    c_mix = np.array([ca * cb for _, ca in _D1 for _, cb in _D1])
    rows, cols = np.array(pairs, dtype=int).reshape(-1, 2).T
    parts = (np.ascontiguousarray(steps.T), index, c2, c_mix, rows, cols)
    for part in parts:
        part.flags.writeable = False
    return parts


def _fd_hessian(u: ScalarField, x: np.ndarray) -> np.ndarray:
    """Central-difference Hessians at points (..., n); shape (F..., ..., n, n).

    F... are the leading value axes of ``u.evaluate`` (none for a scalar
    field), so F fields sharing one ``evaluate`` are differenced in one
    pass.  The distinct stencil points of a chunk are laid out coordinate
    by coordinate in one buffer reused across chunks, each entry
    x_j + h * step, and ``u.evaluate`` gets the buffer's (points, n)
    transpose.  Each point's values are gathered back into both levels
    and combined by BLAS dots of their own, so its bits do not depend on
    the stack, the chunking or the other fields.  An empty stack is still
    evaluated once, for the value axes.
    """
    n = x.shape[-1]
    steps, index, c2, c_mix, rows, cols = _fd_stencil(n)
    k = len(index) // 2
    flat = x.reshape(-1, n)
    buf = np.empty((n, _FD_CHUNK, steps.shape[1]))
    for lo in range(0, max(len(flat), 1), _FD_CHUNK):
        xc = flat[lo : lo + _FD_CHUNK]
        h = _FD_STEP * np.maximum(1.0, np.max(np.abs(xc), axis=-1))
        pts = buf[:, : len(xc)]
        np.multiply(h[:, None], steps[:, None, :], out=pts)
        pts += xc.T[:, :, None]
        vals = np.asarray(u.evaluate(pts.reshape(n, -1).T), dtype=float)
        lead = vals.shape[:-1]
        # take copies: contiguous values, as a strided operand changes how _dot sums.
        vals = np.take(vals.reshape(lead + pts.shape[1:]), index, axis=-1)
        vals = vals.reshape(lead + (len(xc), 2, k))
        axis = vals[..., : n * len(_D2)].reshape(vals.shape[:-1] + (n, len(_D2)))
        mix = vals[..., n * len(_D2) :].reshape(vals.shape[:-1] + (len(rows), len(c_mix)))
        # The C library's pow, as a scalar h**2.
        h2 = np.float_power(np.stack([h, h / 2.0], axis=-1), 2)[..., None]
        # Richardson on each entry: the fourth-order error of h against h/2 cancels.
        diag, off = (
            (16.0 * e[..., 1, :] - e[..., 0, :]) / 15.0
            for e in (_dot(axis, c2) / h2, _dot(mix, c_mix) / h2)
        )
        if lo == 0:
            hess = np.empty(lead + flat.shape + (n,))
        block = hess[..., lo : lo + len(xc), :, :]
        block[..., range(n), range(n)] = diag
        block[..., rows, cols] = block[..., cols, rows] = off
    return hess.reshape(lead + x.shape + (n,))


# --- horizontal derivatives ------------------------------------------------


def horizontal_hessian_sym(group: GroupDescriptor, u: ScalarField, x: np.ndarray) -> np.ndarray:
    """Symmetrized horizontal Hessians ((X_i X_j + X_j X_i) u / 2).

    Takes points (..., n) and returns shape (F..., ..., m, m), the symmetric
    part of sigma^T D^2u sigma, with the value axes F... of a stencil field
    (see ``_fd_hessian``).  The first-order part of X_i X_j u is 2 u_t in
    the (i+d, i) slot and -2 u_t in (i, i+d): antisymmetric, so the
    symmetrization removes it exactly.  ValueError names the first point
    with a non-finite coordinate.
    """
    x = _points(group, x)
    bad = ~np.isfinite(x).all(axis=-1)
    if bad.any():
        raise ValueError(f"point {x[bad][0]!r} is not finite")
    _require_in_domain(u, x)
    if u.euclid_hessian is None:
        hess = _fd_hessian(u, x)
    else:
        hess = np.asarray(u.euclid_hessian(x), dtype=float)
    sigma = _frame(group, x)
    out = np.swapaxes(sigma, -1, -2) @ hess @ sigma
    return 0.5 * (out + np.swapaxes(out, -1, -2))


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

    Per point, the eigenvalue multiset is {radial, tangential, flat x (2d-2)}.
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

    With x = (a, b, t) and h2 = |x_H|^2, v = (a h2 + b t, b h2 - a t) / rho^3
    is the horizontal gradient of the gauge; B = aa^T + bb^T and C = ab^T - ba^T
    assemble the angular part.  Raises SingularPointError where x_H = 0 and
    DomainError where the profile is not smooth.
    """
    d = group.heisenberg_d
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
    rho3 = np.float_power(rho, 3)

    a, b, t = x[..., :d], x[..., d : 2 * d], x[..., -1]
    h2_, t_ = h2[..., None], t[..., None]
    v = np.concatenate([a * h2_ + b * t_, b * h2_ - a * t_], axis=-1) / rho3[..., None]
    b_block, c_block = _outer(a, a) + _outer(b, b), _outer(a, b) - _outer(b, a)
    angular = np.block([[b_block, c_block], [-c_block, b_block]])
    mat = (
        flat[..., None, None] * np.eye(2 * d)
        + (2.0 * psi1 / rho3)[..., None, None] * angular
        + (psi2 - 3.0 * psi1 / rho)[..., None, None] * _outer(v, v)
    )
    mat = 0.5 * (mat + np.swapaxes(mat, -1, -2))
    return RadialHessian(
        matrix=mat,
        eigen_radial=radial,
        eigen_tangential=tangential,
        eigen_flat=flat,
        flat_multiplicity=2 * d - 2,
    )


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
