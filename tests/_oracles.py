"""Test oracles: the full frame, the group law, dilations, a gradient,
callback checkers, two reference stencils, the Pucci oracle's per-column
traces and a reference report writer.

No verdict of the package reads any of these; the tests use them to check
the frame's t row, the closed-form X-lines, the homogeneity of the gauge,
the horizontal Hessian callbacks of the catalog, the bits of
`calculus._horizontal_fd`, the sampled sups of `pucci._sampled_sups` and
the bytes of `report.dumps`.  The package
never builds the full frame sigma(x): its callbacks give the horizontal
Hessian in closed form and its stencil reads the frame's t row alone.  So
the Euclidean stencil `reference_fd_hessian`, conjugated by the frame
(`horizontal_of`), is an independent route to the horizontal Hessian,
sym(sigma^T D^2u sigma), that the package never takes.
"""

from __future__ import annotations

import dataclasses
import json
import math
from typing import Any

import numpy as np

from carnotx.calculus import _D2, _FD_CHUNK, _FD_STEP, RadialProfile, ScalarField
from carnotx.group import GroupDescriptor, _dot, _points
from carnotx.pucci import _haar_columns
from carnotx.rng import substream


def frame(group: GroupDescriptor, x: np.ndarray) -> np.ndarray:
    """Frame coefficients sigma(x), shape (..., n, m): X_j = sum_k sigma_kj d/dx_k."""
    d, m = group.heisenberg_d, group.m
    x = _points(group, x)
    out = np.zeros(x.shape + (m,))
    out[..., :m, :] = np.eye(m)
    out[..., -1, :d] = 2.0 * x[..., d:m]
    out[..., -1, d:] = -2.0 * x[..., :d]
    return out


def horizontal_of(group: GroupDescriptor, euclid: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Symmetrized horizontal Hessians sym(sigma^T H sigma) (..., m, m) of Euclidean ones H.

    The first-order part of X_i X_j u is antisymmetric on H^d, so this is
    the symmetrized horizontal Hessian of a field whose Euclidean Hessian
    at x is H.
    """
    sigma = frame(group, x)
    out = np.swapaxes(sigma, -1, -2) @ np.asarray(euclid, dtype=float) @ sigma
    return 0.5 * (out + np.swapaxes(out, -1, -2))


def dilate(group: GroupDescriptor, lam: float, x: np.ndarray) -> np.ndarray:
    """Anisotropic dilation: coordinate i is scaled by lam**w_i."""
    lam = float(lam)
    if not lam > 0.0:
        raise ValueError(f"dilation factor must be positive, got {lam}")
    weights = np.array(group.dilation_weights, dtype=float)
    return _points(group, x) * lam**weights


def group_multiply(group: GroupDescriptor, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Heisenberg product x o y (broadcasting over leading axes).

    Horizontal parts add; the vertical part picks up twice the symplectic
    area term, making left translation an isometry of the frame.  The
    inverse of x is -x.
    """
    d = group.heisenberg_d
    x, y = np.broadcast_arrays(_points(group, x), _points(group, y))
    out = x + y
    twist = np.sum(
        x[..., d : 2 * d] * y[..., :d] - x[..., :d] * y[..., d : 2 * d], axis=-1
    )
    out[..., -1] = x[..., -1] + y[..., -1] + 2.0 * twist
    return out


# The fourth-order central first difference, offset -> coefficient over h.
_D1 = ((-2, 1.0 / 12.0), (-1, -2.0 / 3.0), (1, 2.0 / 3.0), (2, -1.0 / 12.0))
# Step of the first-order differences below.
_GRADIENT_STEP = 1e-4


def euclid_gradient(u: ScalarField, x: np.ndarray) -> np.ndarray:
    """Euclidean gradients (..., n) of u by the fourth-order first-derivative table."""
    x = np.asarray(x, dtype=float)
    h, eye = _GRADIENT_STEP, np.eye(x.shape[-1])
    return sum(c * u.evaluate(x[..., None, :] + off * h * eye) for off, c in _D1) / h


def horizontal_gradient(group: GroupDescriptor, u: ScalarField, x: np.ndarray) -> np.ndarray:
    """(X_1 u, ..., X_m u) at points (..., n) from differences of u; shape (..., m)."""
    sigma = frame(group, x)
    return (np.swapaxes(sigma, -1, -2) @ euclid_gradient(u, x)[..., None])[..., 0]


def coordinate_product(group: GroupDescriptor, i: int, j: int) -> ScalarField:
    """The monomial x_i * x_j (1-based indices) with its horizontal Hessian callback."""
    for idx in (i, j):
        if not 1 <= idx <= group.n:
            raise ValueError(f"coordinate index must lie in 1..{group.n}, got {idx}")
    n, a, b = group.n, i - 1, j - 1

    def evaluate(x: np.ndarray) -> np.ndarray:
        x = _points(group, x)
        return x[..., a] * x[..., b]

    bump = np.zeros((n, n))
    bump[a, b] += 1.0
    bump[b, a] += 1.0

    return ScalarField(
        name=f"x{i}*x{j}",
        evaluate=evaluate,
        horizontal_hessian=lambda x: horizontal_of(group, bump, x),
    )


# Callbacks agree with the conjugated Euclidean stencil within atol + rtol * max(1, |value|).
_CALLBACK_RTOL, _CALLBACK_ATOL = 1e-6, 1e-8
# Step and relative tolerance of the one-dimensional profile check.
_PROFILE_STEP, _PROFILE_RTOL = 1e-4, 1e-6


def check_field_consistency(group: GroupDescriptor, u: ScalarField, points: np.ndarray) -> dict:
    """Compare a field's horizontal Hessian callback against the frame and the Euclidean stencil.

    The reference is ``horizontal_of(group, reference_fd_hessian(u, x), x)``.
    Returns a report dict; ``ok`` is False when the callback deviates from
    it beyond atol + rtol * scale.
    """
    points = np.atleast_2d(_points(group, points))
    fd = horizontal_of(group, reference_fd_hessian(u, points), points)
    a = np.asarray(u.horizontal_hessian(points), dtype=float)
    scale = _CALLBACK_ATOL + _CALLBACK_RTOL * np.maximum(1.0, np.abs(a))
    worst = float(np.max(np.abs(a - fd) / scale, initial=0.0))
    return {"ok": worst <= 1.0, "hessian_excess": worst}


def check_profile_consistency(profile: RadialProfile, radii: np.ndarray) -> dict:
    """Verify psi_prime / psi_second against 1-D differences of psi.

    The differences use the coefficient tables of the stencils with the
    fixed step _PROFILE_STEP; radii outside the smooth domain are
    skipped, and a ValueError names the profile when none is left.
    """
    radii = np.asarray(radii, dtype=float)
    r = radii[profile.radius_ok(radii)]
    if r.size == 0:
        raise ValueError(f"no radius lies in the smooth domain of profile {profile.name!r}")
    h = _PROFILE_STEP
    psi = {off: np.asarray(profile.psi(r + off * h), dtype=float) for off, _ in _D2}
    d1 = sum(c * psi[off] for off, c in _D1) / h
    d2 = sum(c * psi[off] for off, c in _D2) / h**2
    e1, e2 = (
        float(np.max(np.abs(fd - exact) / np.maximum(1.0, np.abs(exact))))
        for fd, exact in ((d1, profile.psi_prime(r)), (d2, profile.psi_second(r)))
    )
    return {"ok": e1 <= _PROFILE_RTOL and e2 <= _PROFILE_RTOL, "prime_err": e1, "second_err": e2}


def reference_fd_hessian(u: ScalarField, x: np.ndarray) -> np.ndarray:
    """Euclidean Hessians (..., n, n) of a scalar field by fourth-order differences.

    The step is the package's, h = _FD_STEP * max(1, |x|_inf), and the
    result is Richardson-extrapolated from h and h/2.  The table has K rows:
    the axis rows at the second-derivative offsets, then the rows at
    products of first-derivative offsets for each pair (rows[p], cols[p]),
    rows[p] < cols[p].  Each chunk of points (c, n) hands ``u.evaluate``
    all 2K rows per point, ``xc + h * table`` at h and h/2, repeats included.
    """
    n = x.shape[-1]
    pairs = [(k, l) for k in range(n) for l in range(k + 1, n)]
    eye = np.eye(n)
    offsets = np.array(
        [off * eye[k] for k in range(n) for off, _ in _D2]
        + [oa * eye[k] + ob * eye[l] for k, l in pairs for oa, _ in _D1 for ob, _ in _D1]
    ).T.copy()
    c2 = np.array([c for _, c in _D2])
    c_mix = np.array([ca * cb for _, ca in _D1 for _, cb in _D1])
    rows, cols = np.array(pairs, dtype=int).reshape(-1, 2).T
    flat = x.reshape(-1, n)
    hess = np.empty(flat.shape + (n,))
    buf = np.empty((n, _FD_CHUNK, 2, offsets.shape[1]))
    for lo in range(0, len(flat), _FD_CHUNK):
        xc = flat[lo : lo + _FD_CHUNK]
        h = _FD_STEP * np.maximum(1.0, np.max(np.abs(xc), axis=-1))[:, None]
        h = np.concatenate([h, h / 2.0], axis=1)
        pts = buf[:, : len(xc)]
        for j, row in enumerate(pts):
            np.multiply(h[..., None], offsets[j], out=row)
            row += xc[:, None, None, j]
        vals = np.ascontiguousarray(u.evaluate(pts.reshape(n, -1).T), dtype=float)
        vals = vals.reshape(h.shape + (-1,))
        axis = vals[..., : n * len(_D2)].reshape(h.shape + (n, len(_D2)))
        mix = vals[..., n * len(_D2) :].reshape(h.shape + (len(rows), len(c_mix)))
        h2 = np.float_power(h, 2)[..., None]
        H = np.empty(h.shape + (n, n))
        H[..., range(n), range(n)] = _dot(axis, c2) / h2
        H[..., rows, cols] = H[..., cols, rows] = _dot(mix, c_mix) / h2
        hess[lo : lo + len(xc)] = (16.0 * H[:, 1] - H[:, 0]) / 15.0
    return hess.reshape(x.shape + (n,))


def reference_horizontal_fd(group: GroupDescriptor, u: ScalarField, x: np.ndarray) -> np.ndarray:
    """`calculus._horizontal_fd` for a scalar field, with every direction row evaluated.

    For each point, level h_L in (h, h/2), direction v in (sigma_i, then
    sigma_i + sigma_j, then sigma_i - sigma_j over the pairs i < j) of the
    frame at x and offset o of the second-difference table, ``u.evaluate``
    gets its own row, x at o = 0 and x + (o h_L) v otherwise: no row is
    shared between directions or levels.  Q(v) = sum c_o u(row) / h_L^2 by
    the same dots; Richardson per direction, then polarization.
    """
    m, n = group.m, group.n
    flat = x.reshape(-1, n)
    sigma = frame(group, flat)
    rows, cols = np.triu_indices(m, 1)
    dirs = np.concatenate(
        [sigma, sigma[..., rows] + sigma[..., cols], sigma[..., rows] - sigma[..., cols]], -1
    )
    h = _FD_STEP * np.maximum(1.0, np.max(np.abs(flat), axis=-1))
    levels = np.stack([h, h / 2.0], axis=-1)
    pts = np.empty((len(flat), 2, m * m, len(_D2), n))
    for k, (off, _) in enumerate(_D2):
        for level in range(2):
            step = off * levels[:, level, None, None]
            row = flat[:, None] + step * np.swapaxes(dirs, -1, -2)
            pts[:, level, :, k] = row if off else flat[:, None]
    vals = np.ascontiguousarray(u.evaluate(pts.reshape(-1, n)), dtype=float)
    vals = vals.reshape(pts.shape[:-1])
    q = _dot(vals, np.array([c for _, c in _D2])) / np.float_power(levels, 2)[..., None]
    q = (16.0 * q[:, 1] - q[:, 0]) / 15.0
    hess = np.empty((len(flat), m, m))
    hess[:, range(m), range(m)] = q[:, :m]
    plus, minus = q[:, m : m + len(rows)], q[:, m + len(rows) :]
    hess[:, rows, cols] = hess[:, cols, rows] = (plus - minus) / 4.0
    return hess.reshape(x.shape[:-1] + (m, m))


def reference_sampled_sups(
    mats: np.ndarray, lam: float, Lam: float, n_samples: int, seed: int
) -> np.ndarray:
    """`pucci._sampled_sups` of a stack (N, m, m) by per-column sums, one matrix at a time.

    The draws are the oracle's: per chunk of at most 4096 samples from
    substream(seed, "pucci-oracle"), the Gaussians whose Q factor gives the
    columns u_j of U, then the coefficients c.  Each trace is
    Tr(A M) = sum_j c_j u_j^T M u_j, so A is never formed.
    """
    m = mats.shape[-1]
    rng = substream(seed, "pucci-oracle")
    sups = np.full(len(mats), -np.inf)
    for start in range(0, n_samples, 4096):
        k = min(4096, n_samples - start)
        cols = _haar_columns(rng.standard_normal((k, m, m)), np.empty((m, m, k)))
        coeffs = rng.uniform(lam, Lam, size=(k, m))
        for i, mat in enumerate(mats):
            traces = sum(
                coeffs[:, j] * np.einsum("ik,ik->k", cols[j], mat @ cols[j]) for j in range(m)
            )
            sups[i] = max(sups[i], traces.max())
    return sups


def _reference_write(obj: Any, out: list[str], indent: int) -> None:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        out.append(format(x, ".17g") if math.isfinite(x) else "null")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, np.ndarray):
        _reference_write(obj.tolist(), out, indent)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        _reference_write(
            {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)},
            out,
            indent,
        )
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"report keys must be strings, got {key!r}")
            out.append(f"{inner}{json.dumps(key)}: ")
            _reference_write(value, out, indent + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[\n")
        for i, value in enumerate(obj):
            out.append(inner)
            _reference_write(value, out, indent + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


def reference_dumps(obj: Any) -> str:
    """`report.dumps` as a plain recursive writer: isinstance tests in a fixed
    order, `json.dumps` for every key and string, and a dataclass's fields
    looked up on every visit."""
    out: list[str] = []
    _reference_write(obj, out, 0)
    out.append("\n")
    return "".join(out)
