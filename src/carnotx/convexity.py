"""Convexity along horizontal lines and its Hessian characterization.

An X-line through x0 with unit direction alpha in R^m solves
x'(t) = sigma(x(t)) alpha.  A function is semiconvex with constant c along
X-lines when every centered second difference is at most c s^2; the
equivalent pointwise statement bounds the symmetrized horizontal Hessian
below by -c I.  Both checkers share one sampling protocol so their verdicts
can be compared directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from .calculus import (
    DEFAULT_SCHEME,
    FDScheme,
    ScalarField,
    _sample_admissible,
    horizontal_hessian_sym,
)
from .group import GroupDescriptor
from .pucci import sym_eigenvalues
from .rng import substream

__all__ = [
    "XLine",
    "SemiconvexityReport",
    "integrate_xline",
    "xline",
    "check_semiconvex_lines",
    "check_semiconvex_eigen",
    "DEFAULT_STEP_SIZES",
]

# Dyadic probe half-widths for second differences.
DEFAULT_STEP_SIZES = tuple(2.0**-k for k in range(3, 9))

_RK4_MAX_STEP = 1e-3


@dataclass(frozen=True)
class XLine:
    """A horizontal line segment with a vectorized evaluator."""

    start: np.ndarray
    direction: np.ndarray
    t_min: float
    t_max: float
    point_at: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class SemiconvexityReport:
    """Outcome of a sampled semiconvexity check.

    ``worst_slack`` is the largest observed violation of the tested
    inequality (nonpositive means it held everywhere up to tolerance);
    ``witness`` locates the worst sample.
    """

    constant: float
    passed: bool
    worst_slack: float
    witness: Any
    n_checked: int


def _normalized_direction(group: GroupDescriptor, alpha: np.ndarray) -> np.ndarray:
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (group.m,):
        raise ValueError(f"direction must have length m={group.m}")
    norm = float(np.linalg.norm(alpha))
    if norm == 0.0 or not np.isfinite(norm):
        raise ValueError("direction must be nonzero and finite")
    return alpha / norm


def _heisenberg_line(
    group: GroupDescriptor, x0: np.ndarray, alpha: np.ndarray, t: np.ndarray
) -> np.ndarray:
    # Horizontal parts move linearly; the vertical velocity is constant in t
    # because the symplectic twist of (x_H + t alpha) against alpha is fixed.
    d = group.heisenberg_d
    t = np.asarray(t, dtype=float)
    vertical_speed = 2.0 * float(
        x0[d : 2 * d] @ alpha[:d] - x0[:d] @ alpha[d : 2 * d]
    )
    out = np.empty(t.shape + (group.n,))
    out[...] = x0
    out[..., : group.m] += t[..., None] * alpha
    out[..., -1] = x0[-1] + vertical_speed * t
    return out


def _rk4_path(
    group: GroupDescriptor, x0: np.ndarray, alpha: np.ndarray, t_targets: np.ndarray
) -> np.ndarray:
    """Integrate x' = sigma(x) alpha to each target time with fixed-step RK4."""

    def rhs(state: np.ndarray) -> np.ndarray:
        return np.asarray(group.sigma_eval(state), dtype=float) @ alpha

    def advance(t_end: float, n_steps: int) -> np.ndarray:
        state = x0.copy()
        h = t_end / n_steps if n_steps else 0.0
        for _ in range(n_steps):
            k1 = rhs(state)
            k2 = rhs(state + 0.5 * h * k1)
            k3 = rhs(state + 0.5 * h * k2)
            k4 = rhs(state + h * k3)
            state = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        return state

    out = np.empty(t_targets.shape + (group.n,))
    for idx, t_end in np.ndenumerate(t_targets):
        n_steps = max(1, int(np.ceil(abs(t_end) / _RK4_MAX_STEP)))
        coarse = advance(float(t_end), n_steps)
        fine = advance(float(t_end), 2 * n_steps)
        scale = 1.0 + float(np.max(np.abs(fine)))
        if float(np.max(np.abs(fine - coarse))) > 1e-9 * scale:
            raise RuntimeError(
                "horizontal line integration failed step-halving verification"
            )
        out[idx] = fine
    return out


def integrate_xline(
    group: GroupDescriptor, x0: np.ndarray, alpha: np.ndarray, t: float | np.ndarray
) -> np.ndarray:
    """Point(s) reached along the X-line from x0 with unit direction alpha.

    Directions are normalized to |alpha| = 1 so the line parameter is
    horizontal arc length; this calibrates second-difference constants
    against Hessian eigenvalue bounds.  On Heisenberg descriptors the path
    is exact (horizontal motion is linear and the vertical speed constant);
    otherwise fixed-step RK4 with step-halving verification is used.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (group.n,):
        raise ValueError(f"start point must have length n={group.n}")
    alpha = _normalized_direction(group, alpha)
    t_arr = np.asarray(t, dtype=float)
    if group.heisenberg_d is not None:
        out = _heisenberg_line(group, x0, alpha, t_arr)
    else:
        out = _rk4_path(group, x0, alpha, t_arr)
    return out if t_arr.shape else out.reshape(group.n)


def xline(
    group: GroupDescriptor,
    x0: np.ndarray,
    alpha: np.ndarray,
    t_span: tuple[float, float] = (-1.0, 1.0),
) -> XLine:
    """Construct an X-line with a reusable evaluator."""
    t_min, t_max = float(t_span[0]), float(t_span[1])
    if not t_min < t_max:
        raise ValueError(f"need t_min < t_max, got {t_span}")
    x0 = np.asarray(x0, dtype=float)
    unit = _normalized_direction(group, alpha)
    return XLine(
        start=x0,
        direction=unit,
        t_min=t_min,
        t_max=t_max,
        point_at=lambda t: integrate_xline(group, x0, unit, t),
    )


def check_semiconvex_lines(
    group: GroupDescriptor,
    u: ScalarField,
    c: float,
    sampler: Callable[[int, np.random.Generator], np.ndarray],
    line_count: int,
    seed: int,
    step_sizes: tuple[float, ...] = DEFAULT_STEP_SIZES,
    tol: float = 1e-9,
) -> SemiconvexityReport:
    """Second-difference test 2u(x) - u(x(+s)) - u(x(-s)) <= c s^2 + tol.

    Lines start at sampled points with uniformly random unit directions;
    each is probed at every step size.  Endpoints that leave the smooth
    domain cause the whole line to be redrawn (bounded retries).
    """
    c = float(c)
    rng = substream(seed, "semiconvex-lines")
    starts = np.empty((line_count, group.n))
    dirs = np.empty((line_count, group.m))
    s = np.asarray(step_sizes, dtype=float)

    centers = np.empty(line_count)
    plus = np.empty((line_count, s.size))
    minus = np.empty((line_count, s.size))
    filled = 0
    attempts = 0
    while filled < line_count:
        attempts += 1
        if attempts > 40:
            raise RuntimeError("could not sample admissible lines inside the domain")
        need = line_count - filled
        cand_starts = _sample_admissible(u, sampler, need, rng)
        gauss = rng.standard_normal((need, group.m))
        norms = np.linalg.norm(gauss, axis=1)
        ok = norms > 1e-12
        cand_starts, gauss, norms = cand_starts[ok], gauss[ok], norms[ok]
        cand_dirs = gauss / norms[:, None]
        for x0, alpha in zip(cand_starts, cand_dirs):
            fwd = integrate_xline(group, x0, alpha, s)
            bwd = integrate_xline(group, x0, alpha, -s)
            if not (np.all(u.in_domain(fwd)) and np.all(u.in_domain(bwd))):
                continue
            starts[filled], dirs[filled] = x0, alpha
            centers[filled] = float(u.evaluate(x0))
            plus[filled] = np.asarray(u.evaluate(fwd), dtype=float)
            minus[filled] = np.asarray(u.evaluate(bwd), dtype=float)
            filled += 1
            if filled == line_count:
                break

    slack = 2.0 * centers[:, None] - plus - minus - c * s[None, :] ** 2
    flat = int(np.argmax(slack))
    i, j = divmod(flat, s.size)
    worst = float(slack[i, j])
    return SemiconvexityReport(
        constant=c,
        passed=worst <= tol,
        worst_slack=worst,
        witness={"start": starts[i].copy(), "direction": dirs[i].copy(), "s": float(s[j])},
        n_checked=line_count * s.size,
    )


def check_semiconvex_eigen(
    group: GroupDescriptor,
    u: ScalarField,
    c: float,
    sampler: Callable[[int, np.random.Generator], np.ndarray],
    point_count: int,
    seed: int,
    scheme: FDScheme = DEFAULT_SCHEME,
    tol: float = 1e-9,
) -> SemiconvexityReport:
    """Pointwise test: smallest horizontal Hessian eigenvalue >= -c - tol."""
    c = float(c)
    rng = substream(seed, "semiconvex-eigen")
    pts = _sample_admissible(u, sampler, point_count, rng)
    worst = -np.inf
    witness_point = pts[0]
    witness_eig = np.inf
    for x in pts:
        mat = horizontal_hessian_sym(group, u, x, scheme)
        low = float(sym_eigenvalues(mat).eigenvalues[0])
        slack = -c - low  # positive when the bound is violated
        if slack > worst:
            worst = slack
            witness_point = x
            witness_eig = low
    return SemiconvexityReport(
        constant=c,
        passed=worst <= tol,
        worst_slack=float(worst),
        witness={"point": witness_point.copy(), "min_eigenvalue": witness_eig},
        n_checked=point_count,
    )
