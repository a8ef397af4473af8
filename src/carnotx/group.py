"""The Heisenberg groups H^d in graded coordinates.

Coordinates are (x_1, ..., x_2d, t) and the horizontal frame is

    X_i     = d/dx_i     + 2 x_{i+d} d/dt,
    X_{i+d} = d/dx_{i+d} - 2 x_i     d/dt,      i = 1..d,

so m = 2d, n = 2d + 1 and the homogeneous dimension is Q = 2d + 2.  Points
are plain numpy arrays whose last axis has length n; the frame and the
gauge broadcast over leading axes and never mutate their inputs.  General Carnot
groups are out of scope: the paper's estimates hold on them, but every
verdict here runs on H^d.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["GroupDescriptor", "heisenberg"]


@dataclass(frozen=True)
class GroupDescriptor:
    """The Heisenberg group H^d, identified by d; everything else derives from it."""

    heisenberg_d: int

    def __post_init__(self) -> None:
        d = self.heisenberg_d
        if not isinstance(d, (int, np.integer)) or isinstance(d, bool) or d < 1:
            raise ValueError(f"Heisenberg index must be a positive integer, got {d!r}")
        object.__setattr__(self, "heisenberg_d", int(d))

    @property
    def n(self) -> int:
        return 2 * self.heisenberg_d + 1

    @property
    def m(self) -> int:
        return 2 * self.heisenberg_d

    @property
    def homogeneous_dimension(self) -> int:
        return 2 * self.heisenberg_d + 2

    @property
    def dilation_weights(self) -> tuple[int, ...]:
        return (1,) * self.m + (2,)


def heisenberg(d: int) -> GroupDescriptor:
    """The Heisenberg group H^d on R^(2d+1)."""
    return GroupDescriptor(d)


def _points(group: GroupDescriptor, x: np.ndarray) -> np.ndarray:
    """x as float points (..., n) of the group; ValueError for any other last axis."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (group.n,):
        raise ValueError(f"expected points of length {group.n}, got shape {x.shape}")
    return x


def _frame(group: GroupDescriptor, x: np.ndarray) -> np.ndarray:
    """Frame coefficients sigma(x), shape (..., n, m): X_j = sum_k sigma_kj d/dx_k."""
    d, m = group.heisenberg_d, group.m
    x = _points(group, x)
    out = np.zeros(x.shape + (m,))
    out[..., :m, :] = np.eye(m)
    out[..., -1, :d] = 2.0 * x[..., d:m]
    out[..., -1, d:] = -2.0 * x[..., :d]
    return out


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

    This is the one definition of the Koranyi-type gauge
    rho = (|x_H|^4 + t^2)^(1/4), homogeneous of degree one under the
    dilations (x_H, t) -> (lam x_H, lam^2 t).  A single point goes through
    the stacked path: numpy's scalar ** rounds differently from its array
    loop, so a single call would not give the bits of a stacked one.
    """
    d = group.heisenberg_d
    x = _points(group, x)
    if x.ndim == 1:
        return tuple(part[0] for part in _gauge_parts(group, x[None]))
    h2 = _sum_squares(x, 2 * d)
    rho = (h2**2 + x[..., -1] ** 2) ** 0.25
    g = np.divide(h2, rho**2, out=np.zeros_like(h2), where=rho > 0.0)
    return rho, h2, g
