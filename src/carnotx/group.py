"""The Heisenberg groups H^d in graded coordinates.

Coordinates are (x_1, ..., x_2d, t) and the horizontal frame is

    X_i     = d/dx_i     + 2 x_{i+d} d/dt,
    X_{i+d} = d/dx_{i+d} - 2 x_i     d/dt,      i = 1..d,

so m = 2d, n = 2d + 1 and the homogeneous dimension is Q = 2d + 2.  Points
are plain numpy arrays whose last axis has length n; the frame's t row
tau(x) (read by the stencil, the X-lines, the gauge quartic's Hessian and
the radial Hessian) and the gauge broadcast over leading axes and never
mutate their inputs.  General Carnot groups are out of scope: the
paper's estimates hold on them, but every verdict here runs on H^d.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

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


def _frame_t(group: GroupDescriptor, x: np.ndarray) -> np.ndarray:
    """The frame's t row tau(x), shape (..., m): X_j = d/dx_j + tau_j(x) d/dt."""
    d, m = group.heisenberg_d, group.m
    x = _points(group, x)
    return np.concatenate([2.0 * x[..., d:m], -2.0 * x[..., :d]], axis=-1)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products over the last axis, each the very BLAS dot of a 1-D a @ b."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _row_sums(
    x: np.ndarray,
    k: int,
    term: Callable[..., np.ndarray],
    out: Optional[np.ndarray] = None,
    scratch: Optional[np.ndarray] = None,
    negative_zeros: bool = True,
) -> np.ndarray:
    """np.sum(term(x[..., :k]), axis=-1) with the same bits.

    ``term(column, out=None)`` is elementwise and returns a new array
    unless given ``out``, like ``np.square``.  For 1 <= k < 8 numpy adds a
    row's terms in order, so this adds whole columns in that order, which
    is several times as fast for a few columns, and ends by adding +0, so
    that -0 terms sum to +0 as in numpy, unless ``negative_zeros`` is False
    (terms such as squares are never -0); ``scratch``, of the sums' shape,
    then holds each column's term, and nothing is allocated.  Any other k
    is one np.sum call.  ``out`` receives the sums.
    """
    if not 0 < k < 8:
        return np.sum(term(x[..., :k]), axis=-1, out=out)
    shape = x.shape[:-1]
    acc = np.empty(shape) if out is None else out
    term(x[..., 0], out=acc)
    tmp = np.empty(shape) if scratch is None else scratch
    for j in range(1, k):
        acc += term(x[..., j], out=tmp)
    if negative_zeros:
        acc += 0.0
    return acc


def _gauge_fourth(
    group: GroupDescriptor, x: np.ndarray, out: Optional[np.ndarray] = None
) -> tuple[np.ndarray, np.ndarray]:
    """(rho^4, |x_H|^2) at stacked points (..., n), rho^4 = |x_H|^4 + t^2.

    The gauge rho is its fourth root (``_fourth_root``), taken apart, so a
    caller that reads rho on some rows only takes it there.  ``out``, a
    float array (3, ...) over the leading axes of x, receives rho^4 and
    |x_H|^2 in its first two rows and uses the third as scratch, so a caller
    that gauges stack after stack allocates nothing per stack.  A single
    point goes through a one-row stack.
    """
    x = _points(group, x)
    if x.ndim == 1:
        lifted = _gauge_fourth(group, x[None], None if out is None else out[:, None])
        return tuple(part[0] for part in lifted)
    rho4, h2, tmp = np.empty((3,) + x.shape[:-1]) if out is None else out
    _row_sums(x, group.m, np.square, out=h2, scratch=tmp, negative_zeros=False)
    # h2**2 + t**2, each step into a buffer.
    np.square(h2, out=rho4)
    rho4 += np.square(x[..., -1], out=tmp)
    return rho4, h2


def _gauge(group: GroupDescriptor, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rho, |x_H|^2) at points (..., n): rho = (|x_H|^4 + t^2)^(1/4).

    This is the one definition of the Koranyi-type gauge, homogeneous of
    degree one under the dilations (x_H, t) -> (lam x_H, lam^2 t).  A single
    point goes through the stacked path.
    """
    x = _points(group, x)
    if x.ndim == 1:
        return tuple(part[0] for part in _gauge(group, x[None]))
    rho4, h2 = _gauge_fourth(group, x)
    return _fourth_root(rho4), h2


def _fourth_root(rho4: np.ndarray) -> np.ndarray:
    """The gauge's one root, rho = sqrt(sqrt(rho^4)), taken in place of the array rho4.

    Each square root is correctly rounded under IEEE 754, so rho is within
    an ulp of the exact fourth root on every platform, and its bits do not
    depend on numpy's SIMD ``pow``.
    """
    np.sqrt(rho4, out=rho4)
    return np.sqrt(rho4, out=rho4)


def _gauge_slope(rho: np.ndarray, h2: np.ndarray) -> np.ndarray:
    """|D rho|^2 = |x_H|^2 / rho^2 from the parts of ``_gauge``, with the limit 0 at the origin.

    It is a function of rho and |x_H|^2 alone, so a caller that reads it on
    some rows only gathers those parts and computes it there.  Where every
    rho > 0 this is a plain divide, which gives the masked divide's bits.
    """
    rho2, positive = np.square(rho), rho > 0.0
    if positive.all():
        return np.divide(h2, rho2, out=rho2)
    return np.divide(h2, rho2, out=np.zeros_like(h2), where=positive)


def _gauge_parts(
    group: GroupDescriptor, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rho, |x_H|^2, |D rho|^2) at points (..., n): ``_gauge`` and then ``_gauge_slope``."""
    x = _points(group, x)
    if x.ndim == 1:
        return tuple(part[0] for part in _gauge_parts(group, x[None]))
    rho, h2 = _gauge(group, x)
    return rho, h2, _gauge_slope(rho, h2)
