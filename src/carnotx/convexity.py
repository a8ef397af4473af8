"""Convexity along horizontal lines and its Hessian characterization.

An X-line through x0 with unit direction alpha in R^m solves
x'(t) = sigma(x(t)) alpha; on H^d it is the group translate x0 o (t alpha, 0),
computed in closed form.  A function is semiconvex with constant c along
X-lines when every centered second difference is at most c s^2; the
equivalent pointwise statement bounds the symmetrized horizontal Hessian
below by -c I.  Both checkers share one sampling protocol so their results
can be compared directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from .calculus import ScalarField, _rejection_sample, horizontal_hessian_sym
from .catalog import convexity_catalog
from .estimates import _box_draw, _require_distinct
from .group import GroupDescriptor, _dot, _frame_t, _points
from .pucci import sym_eigenvalues
from .rng import substream

__all__ = [
    "integrate_xline",
    "check_semiconvex_lines",
    "check_semiconvex_eigen",
]

# Dyadic probe half-widths for second differences.
_STEP_SIZES = tuple(2.0**-k for k in range(3, 9))
# Both checkers forgive a violation up to this slack.
_SLACK_TOL = 1e-9


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


def integrate_xline(
    group: GroupDescriptor, x0: np.ndarray, alpha: np.ndarray, t: float | np.ndarray
) -> np.ndarray:
    """Point(s) reached along the X-lines from x0 with unit directions alpha.

    Starts (..., n) pair with directions (..., m); the result has shape
    (...) + t.shape + (n,).  Directions are normalized to |alpha| = 1 so the
    line parameter is horizontal arc length; this calibrates second-difference
    constants against Hessian eigenvalue bounds.  The path is exact:
    horizontal motion is linear and the vertical speed constant.
    """
    x0 = _points(group, x0)
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape[-1:] != (group.m,):
        raise ValueError(f"direction must have length m={group.m}")
    norm = np.sqrt(_dot(alpha, alpha))
    if not np.all((norm != 0.0) & np.isfinite(norm)):
        raise ValueError("direction must be nonzero and finite")
    alpha = (alpha / norm[..., None]).reshape(-1, group.m)
    t_arr = np.asarray(t, dtype=float)
    starts = x0.reshape(-1, group.n)
    # Horizontal parts move linearly; the vertical speed tau(x) . alpha is
    # constant in t because tau is linear and tau(alpha) . alpha = 0.
    vertical_speed = _dot(_frame_t(group, starts), alpha)
    lines = (len(starts),) + (1,) * t_arr.ndim
    out = np.empty((len(starts),) + t_arr.shape + (group.n,))
    out[...] = starts.reshape(lines + (group.n,))
    out[..., : group.m] += t_arr[..., None] * alpha.reshape(lines + (group.m,))
    out[..., -1] = starts[:, -1].reshape(lines) + vertical_speed.reshape(lines) * t_arr
    return out.reshape(x0.shape[:-1] + t_arr.shape + (group.n,))


def check_semiconvex_lines(
    group: GroupDescriptor,
    u: ScalarField,
    c: float,
    sampler: Callable[[int, np.random.Generator], np.ndarray],
    line_count: int,
    seed: int,
) -> SemiconvexityReport:
    """Second-difference test 2u(x) - u(x(+s)) - u(x(-s)) <= c s^2 + 1e-9.

    Lines start at sampled points with uniformly random unit directions;
    each is probed at the half-widths s = 2^-3, ..., 2^-8.  A candidate is
    a start and then a Gaussian direction; one whose direction vanishes or
    whose start or any endpoint leaves the smooth domain is redrawn.  The
    lines depend on (sampler, line_count, seed) and the domain they are
    drawn in, never on c: here u.in_domain, and in ``catalog_check`` the
    joint domain of all its fields, so one draw serves every field.
    """
    return _semiconvex_lines(group, (u,), (c,), sampler, line_count, seed)[0][0]


def _finite_constants(constants) -> tuple[float, ...]:
    constants = tuple(float(c) for c in constants)
    if not np.all(np.isfinite(constants)):
        raise ValueError(f"semiconvexity constants must be finite, got {constants}")
    return constants


def _joint_domain(fields: Sequence[ScalarField]) -> Callable[[np.ndarray], np.ndarray]:
    """The AND of every field's ``in_domain``: one field's own values when it is alone."""
    first, *rest = fields

    def in_domain(x: np.ndarray) -> np.ndarray:
        ok = first.in_domain(x)
        for u in rest:
            ok = ok & u.in_domain(x)
        return ok

    return in_domain


def _semiconvex_lines(
    group: GroupDescriptor, fields: Sequence[ScalarField], constants, sampler, line_count, seed
) -> list[list[SemiconvexityReport]]:
    """One list per field of ``check_semiconvex_lines`` reports, one per constant.

    All come from one draw of lines, which stay in the joint smooth domain
    of the fields; each field is scored on them before the next is evaluated.
    """
    constants = _finite_constants(constants)
    if line_count < 1:
        raise ValueError(f"the line check needs at least one line, got {line_count}")
    rng = substream(seed, "semiconvex-lines")
    s = np.asarray(_STEP_SIZES, dtype=float)
    n = group.n
    in_domain = _joint_domain(fields)

    def draw(k: int, rng: np.random.Generator) -> np.ndarray:
        starts = _points(group, sampler(k, rng))
        return np.concatenate([starts, rng.standard_normal((k, group.m))], axis=1)

    # Unit directions and endpoints of the kept candidates of every round, in
    # draw order: the sampler returns the first line_count of those candidates.
    kept = []

    def keep(rows: np.ndarray) -> np.ndarray:
        starts, gauss = rows[:, :n], rows[:, n:]
        norms = np.linalg.norm(gauss, axis=1)
        ok = (norms > 1e-12) & in_domain(starts)
        dirs = gauss[ok] / norms[ok, None]
        fwd, bwd = (integrate_xline(group, starts[ok], dirs, t) for t in (s, -s))
        inside = np.all(in_domain(fwd), axis=-1) & np.all(in_domain(bwd), axis=-1)
        kept.append((dirs[inside], fwd[inside], bwd[inside]))
        ok[ok] = inside
        return ok

    starts = _rejection_sample(draw, keep, line_count, rng)[:, :n]
    dirs, fwd, bwd = (np.concatenate(parts)[:line_count] for parts in zip(*kept))

    def score(base: np.ndarray, c: float) -> SemiconvexityReport:
        slack = base - c * s[None, :] ** 2
        i, j = divmod(int(np.argmax(slack)), s.size)
        worst = float(slack[i, j])
        witness = {"start": starts[i].copy(), "direction": dirs[i].copy(), "s": float(s[j])}
        return SemiconvexityReport(c, worst <= _SLACK_TOL, worst, witness, line_count * s.size)

    def reports(u: ScalarField) -> list[SemiconvexityReport]:
        centers = np.asarray(u.evaluate(starts), dtype=float)
        base = 2.0 * centers[:, None] - u.evaluate(fwd) - u.evaluate(bwd)
        return [score(base, c) for c in constants]

    return [reports(u) for u in fields]


def check_semiconvex_eigen(
    group: GroupDescriptor,
    u: ScalarField,
    c: float,
    sampler: Callable[[int, np.random.Generator], np.ndarray],
    point_count: int,
    seed: int,
) -> SemiconvexityReport:
    """Pointwise test: smallest horizontal Hessian eigenvalue >= -c - 1e-9.

    The points depend on (sampler, point_count, seed) and the domain they
    are drawn in, never on c: here u.in_domain, and in ``catalog_check``
    the joint domain of all its fields, so one draw serves every field.
    """
    return _semiconvex_eigen(group, (u,), (c,), sampler, point_count, seed)[0][0]


def _semiconvex_eigen(
    group: GroupDescriptor, fields: Sequence[ScalarField], constants, sampler, point_count, seed
) -> list[list[SemiconvexityReport]]:
    """One list per field of ``check_semiconvex_eigen`` reports, one per constant.

    All come from one draw of points, which lie in the joint smooth domain
    of the fields; each field's Hessians are formed and scored before the next's.
    """
    constants = _finite_constants(constants)
    if point_count < 1:
        raise ValueError(f"the eigenvalue check needs at least one point, got {point_count}")
    rng = substream(seed, "semiconvex-eigen")
    pts = _rejection_sample(sampler, _joint_domain(fields), point_count, rng)

    def score(low: np.ndarray, c: float) -> SemiconvexityReport:
        slack = -c - low  # positive when the bound is violated
        i = int(np.argmax(slack))
        worst = float(slack[i])
        witness = {"point": pts[i].copy(), "min_eigenvalue": float(low[i])}
        return SemiconvexityReport(c, worst <= _SLACK_TOL, worst, witness, point_count)

    def reports(u: ScalarField) -> list[SemiconvexityReport]:
        low = sym_eigenvalues(horizontal_hessian_sym(group, u, pts))[:, 0]
        return [score(low, c) for c in constants]

    return [reports(u) for u in fields]


# A catalog field is expected to pass both checkers at c >= threshold - THRESHOLD_SLACK.
THRESHOLD_SLACK = 1e-12


@dataclass(frozen=True)
class CatalogCheck:
    """Both checkers on one catalog field at one c; ``agreed`` when each gives ``expected``."""

    field: str
    threshold: float
    c: float
    expected: bool
    lines: SemiconvexityReport
    eigen: SemiconvexityReport
    agreed: bool


def catalog_check(
    group: GroupDescriptor, constants, line_count: int, point_count: int, seed: int
) -> list[CatalogCheck]:
    """Both checkers, each drawing once per call, on every catalog field at every constant.

    No constants, a negative one, which the thresholds do not classify, or a
    repeated one, which would only repeat its rows, is a ValueError."""
    constants = tuple(constants)
    if not constants:
        raise ValueError("the catalog check needs at least one semiconvexity constant in constants")
    if min(constants) < 0.0:
        raise ValueError(
            f"semiconvexity constants must be >= 0 (thresholds classify no c < 0), got {constants}"
        )
    _require_distinct(constants, "semiconvexity constant")
    cases = convexity_catalog(group)
    fields = [case.field for case in cases]
    sampler = _box_draw(group, 1.0)
    every_lines = _semiconvex_lines(group, fields, constants, sampler, line_count, seed)
    every_eigen = _semiconvex_eigen(group, fields, constants, sampler, point_count, seed)
    rows = []
    for case, field_lines, field_eigen in zip(cases, every_lines, every_eigen):
        for c, lines, eigen in zip(constants, field_lines, field_eigen):
            expected = case.threshold <= c + THRESHOLD_SLACK
            agreed = lines.passed == expected and eigen.passed == expected
            rows.append(
                CatalogCheck(case.field.name, case.threshold, c, expected, lines, eigen, agreed)
            )
    return rows
