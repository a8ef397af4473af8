"""Carnot groups in graded coordinates.

A group is described by its layer dimensions and by the coefficient matrix
``sigma(x)`` of its generating horizontal frame: the fields are

    X_j = sum_k sigma_kj(x) * d/dx_k,        j = 1..m,

where the top m-by-m block of sigma is the identity and the remaining rows
are polynomial.  Points are plain numpy arrays of length ``n``; every
operation broadcasts over leading axes and never mutates its inputs.

The Heisenberg groups H^d come with their group law and homogeneous gauge;
other step-2 groups are representable by supplying ``sigma`` directly, in
which case only frame-based operations are available.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "GroupDescriptor",
    "UnsupportedGroupError",
    "heisenberg",
    "dilate",
    "group_multiply",
    "group_inverse",
    "left_translation",
    "homogeneous_norm",
]


class UnsupportedGroupError(ValueError):
    """Raised when an operation needs a group law the descriptor lacks."""


@dataclass(frozen=True)
class GroupDescriptor:
    """A stratified nilpotent group in graded coordinates.

    Attributes
    ----------
    name : str
        Human-readable identifier, used in reports.
    layer_dims : tuple of int
        Dimensions (n_1, ..., n_r) of the layers.  The first layer carries
        the horizontal directions, so m = n_1.
    sigma_eval : callable
        Maps points (..., n) to frame coefficients (..., n, m).  The top
        m-by-m block must be the identity at every point.
    sigma_jacobian_eval : callable
        Maps points (..., n) to the exact partials (..., n, n, m) with
        entry [k, l, j] = d sigma_lj / d x_k.  Polynomial, hence exact.
    heisenberg_d : int, optional
        Set when the descriptor is H^d; enables the group law and gauge.
    """

    name: str
    layer_dims: tuple[int, ...]
    sigma_eval: Callable[[np.ndarray], np.ndarray]
    sigma_jacobian_eval: Callable[[np.ndarray], np.ndarray]
    heisenberg_d: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.layer_dims or any(int(k) < 1 for k in self.layer_dims):
            raise ValueError(f"layer dimensions must be positive, got {self.layer_dims}")
        object.__setattr__(self, "layer_dims", tuple(int(k) for k in self.layer_dims))
        # Probe the frame at two points: shape and identity top block.
        for probe in (np.zeros(self.n), 0.25 * np.arange(1, self.n + 1, dtype=float)):
            sig = np.asarray(self.sigma_eval(probe), dtype=float)
            if sig.shape != (self.n, self.m):
                raise ValueError(
                    f"sigma must have shape ({self.n}, {self.m}), got {sig.shape}"
                )
            if not np.array_equal(sig[: self.m, :], np.eye(self.m)):
                raise ValueError("top m-by-m block of sigma must be the identity")
            jac = np.asarray(self.sigma_jacobian_eval(probe), dtype=float)
            if jac.shape != (self.n, self.n, self.m):
                raise ValueError(
                    f"sigma jacobian must have shape ({self.n}, {self.n}, {self.m}),"
                    f" got {jac.shape}"
                )

    @property
    def n(self) -> int:
        return sum(self.layer_dims)

    @property
    def m(self) -> int:
        return self.layer_dims[0]

    @property
    def homogeneous_dimension(self) -> int:
        return sum((i + 1) * k for i, k in enumerate(self.layer_dims))

    @property
    def dilation_weights(self) -> tuple[int, ...]:
        return tuple(
            i + 1 for i, k in enumerate(self.layer_dims) for _ in range(k)
        )

    def is_heisenberg(self) -> bool:
        return self.heisenberg_d is not None


def heisenberg(d: int) -> GroupDescriptor:
    """The Heisenberg group H^d on R^(2d+1).

    Coordinates are (x_1, ..., x_2d, t) with horizontal frame

        X_i     = d/dx_i     + 2 x_{i+d} d/dt,
        X_{i+d} = d/dx_{i+d} - 2 x_i     d/dt,      i = 1..d,

    so m = 2d and the homogeneous dimension is Q = 2d + 2.
    """
    if not isinstance(d, (int, np.integer)) or isinstance(d, bool) or d < 1:
        raise ValueError(f"Heisenberg index must be a positive integer, got {d!r}")
    d = int(d)
    n, m = 2 * d + 1, 2 * d

    def sigma(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (n, m))
        out[..., :m, :] = np.eye(m)
        for i in range(d):
            out[..., n - 1, i] = 2.0 * x[..., i + d]
            out[..., n - 1, i + d] = -2.0 * x[..., i]
        return out

    jac = np.zeros((n, n, m))
    for i in range(d):
        # d sigma_{n,i} / d x_{i+d} = 2,  d sigma_{n,i+d} / d x_i = -2
        jac[i + d, n - 1, i] = 2.0
        jac[i, n - 1, i + d] = -2.0
    jac.setflags(write=False)

    def sigma_jacobian(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(jac, x.shape[:-1] + (n, n, m))

    return GroupDescriptor(
        name=f"heisenberg-{d}",
        layer_dims=(2 * d, 1),
        sigma_eval=sigma,
        sigma_jacobian_eval=sigma_jacobian,
        heisenberg_d=d,
    )


def dilate(group: GroupDescriptor, lam: float, x: np.ndarray) -> np.ndarray:
    """Anisotropic dilation: coordinate i is scaled by lam**w_i."""
    lam = float(lam)
    if not lam > 0.0:
        raise ValueError(f"dilation factor must be positive, got {lam}")
    x = np.asarray(x, dtype=float)
    weights = np.array(group.dilation_weights, dtype=float)
    return x * lam**weights


def _require_heisenberg(group: GroupDescriptor, what: str) -> int:
    if group.heisenberg_d is None:
        raise UnsupportedGroupError(
            f"{what} is only available on Heisenberg descriptors, not {group.name!r}"
        )
    return group.heisenberg_d


def group_multiply(group: GroupDescriptor, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Heisenberg product x o y (broadcasting over leading axes).

    Horizontal parts add; the vertical part picks up twice the symplectic
    area term, making left translation an isometry of the frame.
    """
    d = _require_heisenberg(group, "group multiplication")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    x, y = np.broadcast_arrays(x, y)
    out = x + y
    twist = np.sum(
        x[..., d : 2 * d] * y[..., :d] - x[..., :d] * y[..., d : 2 * d], axis=-1
    )
    out[..., -1] = x[..., -1] + y[..., -1] + 2.0 * twist
    return out


def group_inverse(group: GroupDescriptor, x: np.ndarray) -> np.ndarray:
    """Group inverse; in these coordinates simply -x."""
    _require_heisenberg(group, "group inversion")
    return -np.asarray(x, dtype=float)


def left_translation(
    group: GroupDescriptor, g: np.ndarray
) -> Callable[[np.ndarray], np.ndarray]:
    """The map x -> g o x."""
    g = np.asarray(g, dtype=float)
    _require_heisenberg(group, "left translation")
    return lambda x: group_multiply(group, g, x)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products over the last axis, each the very BLAS dot of a 1-D a @ b."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _sum_squares(x: np.ndarray, k: int) -> np.ndarray:
    """np.sum(x[..., :k] ** 2, axis=-1) with the same bits, column by column.

    numpy reduces each row of k <= 128 terms sequentially below 8 terms and
    with eight interleaved accumulators, combined pairwise, from 8 on; this
    repeats that order over whole columns instead of one short row at a
    time, squaring each column on its own rather than the strided block,
    which is about five times as fast for the few columns of H^d.
    """

    def sq(j: int) -> np.ndarray:
        return x[..., j] ** 2

    if k < 8:
        acc = sq(0)
        for j in range(1, k):
            acc += sq(j)
        return acc
    r = [sq(j) for j in range(8)]
    top = k - k % 8
    for i in range(8, top, 8):
        for j in range(8):
            r[j] += sq(i + j)
    acc = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for i in range(top, k):
        acc += sq(i)
    return acc


def _gauge_parts(
    group: GroupDescriptor, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rho, |x_H|^2, |D rho|^2 = |x_H|^2 / rho^2) with the limit 0 at the origin.

    This is the one definition of the gauge.  A single point goes through
    the stacked path: numpy's scalar ** rounds differently from its array
    loop, so a single call would not give the bits of a stacked one.
    """
    d = _require_heisenberg(group, "the homogeneous gauge")
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return tuple(part[0] for part in _gauge_parts(group, x[None]))
    h2 = _sum_squares(x, 2 * d)
    rho = (h2**2 + x[..., -1] ** 2) ** 0.25
    g = np.divide(h2, rho**2, out=np.zeros_like(h2), where=rho > 0.0)
    return rho, h2, g


def homogeneous_norm(group: GroupDescriptor, x: np.ndarray) -> np.ndarray:
    """Korányi-type gauge rho(x) = (|x_H|^4 + t^2)^(1/4) on H^d.

    Homogeneous of degree one under dilations and smooth away from the
    origin.
    """
    return _gauge_parts(group, x)[0]
