"""Quadrature and verification harnesses on gauge balls of H^d.

Monte-Carlo integration samples the bounding box of a gauge ball with
counter-based substreams, so every estimate is a pure function of
(seed, work-unit identity) and reports are bit-identical across worker
counts.  Radially separable integrands additionally get a polar reduction:
an angular moment measured once over the unit ball times an exact
one-dimensional radial integral.  That reduction keeps the critical
exponent measurements well conditioned where naive sampling has unbounded
variance.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import __version__ as _pkg_version
from .calculus import (
    DEFAULT_SCHEME,
    FDScheme,
    RadialProfile,
    ScalarField,
    SingularPointError,
    _sample_admissible,
    horizontal_hessian_sym,
    radial_hessian,
    radial_hessian_eigenvalues,
)
from .group import GroupDescriptor, _gauge_parts, heisenberg, homogeneous_norm
from .pucci import (
    Ellipticity,
    pucci_plus,
    pucci_plus_of_eigenvalues,
    sym_eigenvalues,
)
from .rng import substream

__all__ = [
    "IllPosedIntegrandError",
    "QuadratureSpec",
    "CounterexampleConfig",
    "McEstimate",
    "LqEstimate",
    "AnnihilationReport",
    "PointwiseBoundReport",
    "SweepRow",
    "SweepReport",
    "gauge_box_halfwidths",
    "gauge_ball_sampler",
    "ball_volume",
    "lq_norm",
    "q_star",
    "alpha_for_critical_q",
    "counterexample_profile",
    "counterexample_field",
    "counterexample_rhs",
    "counterexample_rhs_field",
    "verify_pucci_annihilation",
    "sweep_scaling",
    "pointwise_bound_check",
]

# Exclusion half-widths for sets where derivative formulas degenerate.
AXIS_EXCLUSION = 1e-8
SPLICE_EXCLUSION = 1e-6


class IllPosedIntegrandError(RuntimeError):
    """Too many samples hit the integrand's singular set."""


@dataclass(frozen=True)
class QuadratureSpec:
    """How to integrate over a gauge ball.

    ``monte-carlo`` samples the bounding box uniformly; ``tensor-grid``
    uses a midpoint product grid of roughly ``n_samples`` nodes.  Norm
    estimates require at least 10^3 samples.
    """

    n_samples: int
    seed: int
    method: str = "monte-carlo"

    def __post_init__(self) -> None:
        if self.n_samples < 1000:
            raise ValueError(
                f"norm estimates need at least 1000 samples, got {self.n_samples}"
            )
        if self.method not in ("monte-carlo", "tensor-grid"):
            raise ValueError(f"unknown quadrature method {self.method!r}")


@dataclass(frozen=True)
class McEstimate:
    value: float
    stderr: float


@dataclass(frozen=True)
class LqEstimate:
    """An L^q norm estimate with its q-th power mass and error bars."""

    norm: float
    norm_stderr: float
    mass: float
    mass_stderr: float
    rejected_fraction: float
    n_inside: int


def gauge_box_halfwidths(group: GroupDescriptor, r: float) -> np.ndarray:
    """Half-widths of the coordinate box containing the gauge ball B_r.

    Coordinate i gets half-width r**w_i; on H^d that is |x_i| <= r for the
    horizontal slots and |t| <= r^2 vertically, which contains {rho < r}.
    """
    if not 0.0 < r < math.inf:
        raise ValueError(f"ball radius must be positive and finite, got {r}")
    return float(r) ** np.array(group.dilation_weights, dtype=float)


def _box_volume(group: GroupDescriptor, r: float) -> float:
    return float(np.prod(2.0 * gauge_box_halfwidths(group, r)))


def _sample_box(
    group: GroupDescriptor, r: float, count: int, rng: np.random.Generator
) -> np.ndarray:
    hw = gauge_box_halfwidths(group, r)
    return rng.uniform(-1.0, 1.0, size=(count, group.n)) * hw


def _rejection_sample(
    group: GroupDescriptor,
    r: float,
    count: int,
    rng: np.random.Generator,
    keep: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    batch_floor: int,
) -> np.ndarray:
    """Sample `count` points of box(B_r) passing `keep(rho, h2, pts)`.

    Each draw takes at least `batch_floor` box points; the floor fixes which
    substream draws land in which sample, so changing it changes reports.
    """
    out = np.empty((count, group.n))
    got = 0
    for _ in range(10000):
        if got == count:
            break
        pts = _sample_box(group, r, max(count - got, batch_floor), rng)
        rho, h2, _ = _gauge_parts(group, pts)
        pts = pts[keep(rho, h2, pts)][: count - got]
        out[got : got + len(pts)] = pts
        got += len(pts)
    if got < count:
        raise ValueError("rejection sampling failed to fill the sample")
    return out


def gauge_ball_sampler(
    group: GroupDescriptor,
    rho_max: float,
    rho_min: float = 0.0,
    min_horizontal: float = 0.0,
    exclude_shells: Sequence[tuple[float, float]] = (),
) -> Callable[[int, np.random.Generator], np.ndarray]:
    """Uniform sampler on a gauge annulus, with optional exclusions.

    ``exclude_shells`` lists (radius, half-width) pairs; samples with
    |rho - radius| below the half-width are rejected.  Useful for keeping
    finite-difference stencils away from splice radii.
    """
    if group.heisenberg_d is None:
        raise ValueError("gauge-ball sampling needs a Heisenberg descriptor")

    def keep(rho: np.ndarray, h2: np.ndarray, pts: np.ndarray) -> np.ndarray:
        mask = (rho < rho_max) & (rho >= rho_min) & (h2 >= min_horizontal**2)
        for center, width in exclude_shells:
            mask &= np.abs(rho - center) >= width
        return mask

    return lambda count, rng: _rejection_sample(group, rho_max, count, rng, keep, 64)


def ball_volume(group: GroupDescriptor, r: float, quad: QuadratureSpec) -> McEstimate:
    """Volume of the gauge ball B_r with a standard-error estimate."""
    vbox = _box_volume(group, r)
    if quad.method == "tensor-grid":
        frac_fine, frac_coarse = (
            float(np.mean(_gauge_parts(group, mesh)[0] < r))
            for mesh in _grid_meshes(group, r, quad.n_samples)
        )
        return McEstimate(
            value=vbox * frac_fine, stderr=vbox * abs(frac_fine - frac_coarse)
        )
    rng = substream(quad.seed, "ball-volume", repr(float(r)))
    pts = _sample_box(group, r, quad.n_samples, rng)
    rho, _, _ = _gauge_parts(group, pts)
    p = float(np.mean(rho < r))
    se = math.sqrt(max(p * (1.0 - p), 0.0) / quad.n_samples)
    return McEstimate(value=vbox * p, stderr=vbox * se)


def _grid_meshes(group: GroupDescriptor, r: float, n_samples: int) -> list[np.ndarray]:
    """Midpoint product grids on box(B_r), fine and coarse.

    The fine grid has about `n_samples` nodes; the coarse one has 2^n times
    fewer, and the disagreement between the two is the reported error.
    """
    hw = gauge_box_halfwidths(group, r)
    meshes = []
    for n_target in (n_samples, max(n_samples // 2**group.n, 2**group.n)):
        k = max(2, int(round(n_target ** (1.0 / group.n))))
        axes = [np.linspace(-h + h / k, h - h / k, k) for h in hw]
        meshes.append(
            np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, group.n)
        )
    return meshes


def lq_norm(
    u: ScalarField, group: GroupDescriptor, r: float, q: float, quad: QuadratureSpec
) -> LqEstimate:
    """L^q(B_r) norm of a field by box sampling with an indicator.

    Non-finite field values inside the ball count as rejected samples; a
    rejected fraction above 1e-3 means the integrand's bad set is not
    negligible and raises IllPosedIntegrandError.
    """
    q = float(q)
    if not q > 1.0:
        raise ValueError(f"exponent must exceed 1, got {q}")
    if quad.method == "tensor-grid":
        return _lq_norm_grid(u, group, r, q, quad)
    rng = substream(quad.seed, "lq-norm", u.name, repr(float(r)), repr(q))
    vbox = _box_volume(group, r)
    n = quad.n_samples
    pts = _sample_box(group, r, n, rng)
    rho, _, _ = _gauge_parts(group, pts)
    inside = rho < r
    vals = np.asarray(u.evaluate(pts[inside]), dtype=float)
    bad = ~np.isfinite(vals)
    n_inside = int(np.sum(inside))
    rejected = float(np.sum(bad)) / max(1, n_inside)
    if rejected > 1e-3:
        raise IllPosedIntegrandError(
            f"{u.name!r} was unevaluable on {rejected:.2%} of samples in B_{r}"
        )
    w = np.zeros(n)
    w[inside] = np.where(bad, 0.0, np.abs(vals) ** q)
    mass = vbox * float(np.mean(w))
    mass_se = vbox * float(np.std(w, ddof=1)) / math.sqrt(n)
    norm = mass ** (1.0 / q)
    norm_se = norm * mass_se / (q * mass) if mass > 0.0 else mass_se ** (1.0 / q)
    return LqEstimate(
        norm=norm,
        norm_stderr=norm_se,
        mass=mass,
        mass_stderr=mass_se,
        rejected_fraction=rejected,
        n_inside=n_inside,
    )


def _lq_norm_grid(
    u: ScalarField, group: GroupDescriptor, r: float, q: float, quad: QuadratureSpec
) -> LqEstimate:
    def mass_at(mesh: np.ndarray) -> tuple[float, float, int]:
        rho, _, _ = _gauge_parts(group, mesh)
        inside = rho < r
        vals = np.asarray(u.evaluate(mesh[inside]), dtype=float)
        bad = ~np.isfinite(vals)
        cell = _box_volume(group, r) / mesh.shape[0]
        return (
            cell * float(np.sum(np.where(bad, 0.0, np.abs(vals) ** q))),
            float(np.sum(bad)) / max(1, int(np.sum(inside))),
            int(np.sum(inside)),
        )

    fine_mesh, coarse_mesh = _grid_meshes(group, r, quad.n_samples)
    mass, rejected, n_inside = mass_at(fine_mesh)
    coarse, _, _ = mass_at(coarse_mesh)
    if rejected > 1e-3:
        raise IllPosedIntegrandError(
            f"{u.name!r} was unevaluable on {rejected:.2%} of grid nodes in B_{r}"
        )
    err = abs(mass - coarse)
    norm = mass ** (1.0 / q)
    return LqEstimate(
        norm=norm,
        norm_stderr=norm * err / (q * mass) if mass > 0 else 0.0,
        mass=mass,
        mass_stderr=err,
        rejected_fraction=rejected,
        n_inside=n_inside,
    )


# --- the spliced gauge-power family -----------------------------------------


def q_star(alpha: float, homogeneous_dim: float) -> float:
    """Critical integrability exponent Q / (2 - alpha)."""
    return float(homogeneous_dim) / (2.0 - float(alpha))


def alpha_for_critical_q(q: float, homogeneous_dim: float) -> float:
    """The profile exponent making a given q critical.

    Solves Q / (2 - alpha) = q.  Only q in (Q/2, Q) is reachable: at or
    below Q/2 the required alpha = 2 - Q/q would not be positive, so no
    admissible profile exists and a ValueError explains that.
    """
    q = float(q)
    big_q = float(homogeneous_dim)
    if q <= big_q / 2.0:
        raise ValueError(
            f"q={q} is out of reach: criticality requires alpha = 2 - Q/q > 0,"
            f" i.e. q > Q/2 = {big_q / 2.0}"
        )
    if q >= big_q:
        raise ValueError(
            f"q={q} is out of reach: alpha = 2 - Q/q must stay below 1, i.e. q < Q = {big_q}"
        )
    return 2.0 - big_q / q


@dataclass(frozen=True)
class CounterexampleConfig:
    """Parameters of the spliced gauge-power family on H^d.

    The profile is 1 - rho^alpha outside radius eps and a matched parabola
    inside.  ``paper-literal`` glue keeps the inner coefficient alpha
    (continuous but with a derivative kink at the splice); ``c1-variant``
    halves it, which makes the splice C^1.  The ellipticity window is
    lam = 1/(Q-1), Lam = 1/(1-alpha): exactly the window in which the
    maximal operator annihilates the outer branch.
    """

    d: int
    alpha: float
    eps_list: tuple[float, ...]
    q_list: tuple[float, ...]
    glue_mode: str = "paper-literal"

    def __post_init__(self) -> None:
        if not (isinstance(self.d, (int, np.integer)) and self.d >= 1):
            raise ValueError(f"d must be a positive integer, got {self.d!r}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        object.__setattr__(self, "eps_list", tuple(float(e) for e in self.eps_list))
        object.__setattr__(self, "q_list", tuple(float(q) for q in self.q_list))
        for eps in self.eps_list:
            if not 0.0 < eps < 1.0:
                raise ValueError(f"splice radii must lie in (0, 1), got {eps}")
        big_q = self.homogeneous_dim
        for q in self.q_list:
            if not 1.0 < q < big_q:
                raise ValueError(
                    f"integrability exponents must lie in (1, Q) = (1, {big_q}), got {q}"
                )
        if self.glue_mode not in ("paper-literal", "c1-variant"):
            raise ValueError(f"unknown glue mode {self.glue_mode!r}")
        if not self.ellipticity().Lam > self.ellipticity().lam:
            raise ValueError("degenerate ellipticity window")

    @property
    def homogeneous_dim(self) -> int:
        return 2 * self.d + 2

    @property
    def inner_coefficient(self) -> float:
        return self.alpha if self.glue_mode == "paper-literal" else 0.5 * self.alpha

    @property
    def rhs_amplitude(self) -> float:
        """Magnitude coefficient of the inner right-hand side.

        Equals 2 a Q / (Q - 1) where a is the inner parabola coefficient;
        with literal glue this is 2 alpha Q / (Q - 1).
        """
        big_q = self.homogeneous_dim
        return 2.0 * self.inner_coefficient * big_q / (big_q - 1.0)

    def ellipticity(self) -> Ellipticity:
        big_q = self.homogeneous_dim
        return Ellipticity(lam=1.0 / (big_q - 1.0), Lam=1.0 / (1.0 - self.alpha))

    def group(self) -> GroupDescriptor:
        return heisenberg(self.d)

    def critical_q(self) -> float:
        return q_star(self.alpha, self.homogeneous_dim)


def power_profile(alpha: float) -> RadialProfile:
    """The gauge power 1 - rho^alpha, extended by its limit 1 at rho = 0."""

    def psi(r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        rr = np.where(r > 0.0, r, 1.0)
        return np.where(r > 0.0, 1.0 - rr**alpha, 1.0)

    def psi_prime(r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        rr = np.where(r > 0.0, r, 1.0)
        return np.where(r > 0.0, -alpha * rr ** (alpha - 1.0), 0.0)

    def psi_second(r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        rr = np.where(r > 0.0, r, 1.0)
        return np.where(r > 0.0, alpha * (1.0 - alpha) * rr ** (alpha - 2.0), 0.0)

    return RadialProfile(
        name=f"power[{alpha}]",
        psi=psi,
        psi_prime=psi_prime,
        psi_second=psi_second,
        smooth_radii=lambda r: np.asarray(r, dtype=float) > 0.0,
    )


def counterexample_profile(cfg: CounterexampleConfig, eps: float) -> RadialProfile:
    """Radial profile of the spliced family at a given splice radius.

    Values and derivatives exactly at the splice resolve to the outer
    branch (the splice set has measure zero; reports flag hits).
    """
    eps = float(eps)
    if not 0.0 < eps < 1.0:
        raise ValueError(f"splice radius must lie in (0, 1), got {eps}")
    alpha = cfg.alpha
    a = cfg.inner_coefficient
    cont = (1.0 - a) * eps**alpha  # matches the branches at rho = eps
    outer = power_profile(alpha)

    def psi(r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        inner = 1.0 - a * eps ** (alpha - 2.0) * r**2 - cont
        return np.where(r >= eps, outer.psi(r), inner)

    def psi_prime(r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        inner = -2.0 * a * eps ** (alpha - 2.0) * r
        return np.where(r >= eps, outer.psi_prime(r), inner)

    def psi_second(r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        inner = np.full_like(r, -2.0 * a * eps ** (alpha - 2.0))
        return np.where(r >= eps, outer.psi_second(r), inner)

    return RadialProfile(
        name=f"splice[alpha={alpha},eps={eps},{cfg.glue_mode}]",
        psi=psi,
        psi_prime=psi_prime,
        psi_second=psi_second,
        smooth_radii=lambda r: np.asarray(r, dtype=float) > 0.0,
        splice_radius=eps,
    )


def counterexample_field(cfg: CounterexampleConfig, eps: float) -> ScalarField:
    """The spliced field as a plain ScalarField (evaluation only).

    Its smooth domain excludes the splice shell and the vertical axis,
    where second derivatives do not exist classically.
    """
    group = cfg.group()
    profile = counterexample_profile(cfg, eps)

    def evaluate(x: np.ndarray) -> np.ndarray:
        return np.asarray(profile.psi(homogeneous_norm(group, x)), dtype=float)

    def domain(x: np.ndarray) -> np.ndarray:
        rho, h2, _ = _gauge_parts(group, x)
        return (h2 > 0.0) & (rho != eps)

    return ScalarField(name=profile.name, evaluate=evaluate, smooth_domain=domain)


def counterexample_rhs(cfg: CounterexampleConfig, eps: float, x: np.ndarray) -> float:
    """Right-hand side paired with the spliced field at a single point.

    Zero outside B_eps; inside, a negative multiple of the squared
    horizontal gauge gradient scaled by eps**(alpha-2).  Points on the
    vertical axis inside B_eps are singular for the radial frame and raise.
    """
    group = cfg.group()
    x = np.asarray(x, dtype=float)
    if x.shape != (group.n,):
        raise ValueError(f"expected a single point of length {group.n}")
    rho, h2, g = _gauge_parts(group, x)
    if rho >= eps:
        return 0.0
    if h2 == 0.0:
        raise SingularPointError(
            "the inner right-hand side is undefined on the vertical axis"
        )
    return float(-cfg.rhs_amplitude * eps ** (cfg.alpha - 2.0) * g)


def counterexample_rhs_field(cfg: CounterexampleConfig, eps: float) -> ScalarField:
    """Vectorized right-hand side, extended by its limit 0 on the axis."""
    group = cfg.group()
    amp = cfg.rhs_amplitude * eps ** (cfg.alpha - 2.0)

    def evaluate(x: np.ndarray) -> np.ndarray:
        rho, _, g = _gauge_parts(group, x)
        return np.where(rho < eps, -amp * g, 0.0)

    return ScalarField(name=f"rhs[{eps}]", evaluate=evaluate)


# --- annihilation of the maximal operator ------------------------------------


@dataclass(frozen=True)
class AnnihilationReport:
    """Sampled residuals of the extremal-operator identities.

    Residuals are reported relative to the natural scale eps**(alpha-2).
    ``matrix_route_dev`` is the worst disagreement between the closed-form
    eigenvalue multiset and a full matrix eigendecomposition;
    ``fd_max_excess`` is the worst finite-difference Hessian deviation in
    units of its tolerance (<= 1 is good).
    """

    passed: bool
    eps: float
    n_outer: int
    n_inner: int
    max_outer_residual: float
    max_inner_residual: float
    witness: Optional[np.ndarray]
    matrix_route_dev: float
    fd_points: int
    fd_max_excess: float
    n_excluded_axis: int
    n_excluded_shell: int


def verify_pucci_annihilation(
    cfg: CounterexampleConfig,
    eps: float,
    n_samples: int,
    seed: int,
    tol: float = 1e-8,
    fd_checks: int = 12,
    fd_rtol: float = 1e-4,
) -> AnnihilationReport:
    """Check the defining identities of the spliced family by sampling.

    Outside B_eps the maximal operator of the horizontal Hessian must
    vanish; inside it must equal the paired right-hand side.  Half the
    samples cover the unit ball, half the inner ball (whose bounding box
    scales with eps, so both regimes are exercised at any splice radius).
    Closed forms are cross-checked against a matrix eigendecomposition and
    against finite differences of the field itself on safe subsamples.
    """
    if n_samples < 2:
        raise ValueError(
            f"annihilation needs at least 2 samples (one per region), got {n_samples}"
        )
    group = cfg.group()
    e = cfg.ellipticity()
    profile = counterexample_profile(cfg, eps)
    amp = cfg.rhs_amplitude * eps ** (cfg.alpha - 2.0)
    scale = eps ** (cfg.alpha - 2.0)
    rng = substream(seed, "annihilation", repr(float(eps)))

    excluded = {"axis": 0, "shell": 0}

    def keep_within(radius: float) -> Callable:
        def keep(rho: np.ndarray, h2: np.ndarray, pts: np.ndarray) -> np.ndarray:
            inside = rho < radius
            axis = h2 < AXIS_EXCLUSION**2
            shell = np.abs(rho - eps) < SPLICE_EXCLUSION
            excluded["axis"] += int(np.sum(inside & axis))
            excluded["shell"] += int(np.sum(inside & shell & ~axis))
            return inside & ~axis & ~shell

        return keep

    n_ball = n_samples // 2
    pts = np.vstack(
        [
            _rejection_sample(group, 1.0, n_ball, rng, keep_within(1.0), 256),
            _rejection_sample(group, eps, n_samples - n_ball, rng, keep_within(eps), 256),
        ]
    )

    rho, h2, g = _gauge_parts(group, pts)
    inner = rho < eps
    eigs = radial_hessian_eigenvalues(group, profile, pts)
    mplus = pucci_plus_of_eigenvalues(eigs, e)
    rhs = np.where(inner, -amp * g, 0.0)
    residual = np.abs(mplus - rhs) / scale

    worst = int(np.argmax(residual))
    outer_res = float(np.max(residual[~inner])) if np.any(~inner) else 0.0
    inner_res = float(np.max(residual[inner])) if np.any(inner) else 0.0

    # Route cross-check: full matrix + Jacobi eigensolver on a subsample.
    sub = rng.choice(len(pts), size=min(32, len(pts)), replace=False)
    matrix_dev = 0.0
    for i in sub:
        rh = radial_hessian(group, profile, pts[i])
        via_matrix = pucci_plus(rh.matrix, e)
        matrix_dev = max(matrix_dev, abs(via_matrix - float(mplus[i])) / scale)

    # Finite-difference cross-check on the outer branch, away from the
    # splice and the axis so the stencil sees a smooth function.
    u = counterexample_field(cfg, eps)
    lo = max(0.15, eps + 0.03)
    fd_ok = (~inner) & (rho > lo) & (rho < 0.9) & (h2 > 0.05**2)
    fd_idx = np.flatnonzero(fd_ok)
    if len(fd_idx) > fd_checks:
        fd_idx = fd_idx[rng.choice(len(fd_idx), size=fd_checks, replace=False)]
    fd_excess = 0.0
    for i in fd_idx:
        approx = horizontal_hessian_sym(group, u, pts[i])
        exact = radial_hessian(group, profile, pts[i]).matrix
        rel = float(
            np.linalg.norm(approx - exact) / max(np.linalg.norm(exact), 1e-30)
        )
        fd_excess = max(fd_excess, rel / fd_rtol)

    passed = (
        outer_res <= tol
        and inner_res <= tol
        and matrix_dev <= tol
        and fd_excess <= 1.0
    )
    return AnnihilationReport(
        passed=passed,
        eps=float(eps),
        n_outer=int(np.sum(~inner)),
        n_inner=int(np.sum(inner)),
        max_outer_residual=outer_res,
        max_inner_residual=inner_res,
        witness=pts[worst].copy() if not passed else None,
        matrix_route_dev=matrix_dev,
        fd_points=len(fd_idx),
        fd_max_excess=fd_excess,
        n_excluded_axis=excluded["axis"],
        n_excluded_shell=excluded["shell"],
    )


# --- the scaling sweep --------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    """Measured norms for one (eps, q) cell.

    Masses are q-th powers of norms.  The Hessian magnitude is the
    pointwise spectral norm (largest absolute eigenvalue); its inner mass
    uses the exact radial constancy of the profile, its outer mass the
    polar reduction with a Monte-Carlo angular moment.
    """

    eps: float
    q: float
    predicted_exponent: float
    f_mass: float
    f_mass_stderr: float
    f_norm: float
    f_norm_stderr: float
    hess_mass_inner: float
    hess_mass_inner_stderr: float
    hess_mass_outer: float
    hess_mass_outer_stderr: float
    hess_norm_ball: float
    hess_norm_outer: float
    u_sup: float


@dataclass(frozen=True)
class SweepReport:
    config: dict
    rows: list[SweepRow]
    fits: list[dict]
    verdicts: list[dict]
    unit_ball_volume: float
    unit_ball_volume_stderr: float
    passed: bool


def _profile_sup(profile: RadialProfile, grid: int = 8192) -> float:
    r = np.linspace(0.0, 1.0, grid + 1)
    return float(np.max(profile.psi(r)))


def _sweep_row(
    cfg: CounterexampleConfig, quad: QuadratureSpec, i_eps: int, i_q: int
) -> SweepRow:
    group = cfg.group()
    big_q = float(cfg.homogeneous_dim)
    eps = cfg.eps_list[i_eps]
    q = cfg.q_list[i_q]
    alpha = cfg.alpha
    beta = (alpha - 2.0) * q + big_q
    rng = substream(quad.seed, "sweep-row", i_eps, i_q)
    n = quad.n_samples

    # Angular moment of |D rho|^(2q) over B_eps (its own box, so the hit
    # rate is eps-independent) and over the unit ball for the polar outer
    # reduction.
    def moment(radius: float) -> tuple[float, float]:
        pts = _sample_box(group, radius, n, rng)
        rho, _, g = _gauge_parts(group, pts)
        w = np.where(rho < radius, g**q, 0.0)
        vbox = _box_volume(group, radius)
        return (
            vbox * float(np.mean(w)),
            vbox * float(np.std(w, ddof=1)) / math.sqrt(n),
        )

    inner_moment, inner_moment_se = moment(eps)
    unit_moment, unit_moment_se = moment(1.0)

    scale = eps ** ((alpha - 2.0) * q)
    amp = cfg.rhs_amplitude
    f_mass = amp**q * scale * inner_moment
    f_mass_se = amp**q * scale * inner_moment_se

    inner_mag = 6.0 * cfg.inner_coefficient  # largest |eigenvalue| coefficient inside
    hess_inner = inner_mag**q * scale * inner_moment
    hess_inner_se = inner_mag**q * scale * inner_moment_se

    outer_mag = 3.0 * alpha  # largest |eigenvalue| coefficient outside
    radial_integral = (
        math.log(1.0 / eps) if abs(beta) < 1e-9 else (1.0 - eps**beta) / beta
    )
    hess_outer = outer_mag**q * big_q * unit_moment * radial_integral
    hess_outer_se = outer_mag**q * big_q * unit_moment_se * radial_integral

    f_norm = f_mass ** (1.0 / q)
    f_norm_se = f_norm * f_mass_se / (q * f_mass) if f_mass > 0.0 else 0.0

    profile = counterexample_profile(cfg, eps)
    return SweepRow(
        eps=eps,
        q=q,
        predicted_exponent=beta,
        f_mass=f_mass,
        f_mass_stderr=f_mass_se,
        f_norm=f_norm,
        f_norm_stderr=f_norm_se,
        hess_mass_inner=hess_inner,
        hess_mass_inner_stderr=hess_inner_se,
        hess_mass_outer=hess_outer,
        hess_mass_outer_stderr=hess_outer_se,
        hess_norm_ball=(hess_inner + hess_outer) ** (1.0 / q),
        hess_norm_outer=hess_outer ** (1.0 / q),
        u_sup=_profile_sup(profile),
    )


def _linear_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least-squares slope, intercept, and R^2."""
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 and ss_res <= 1e-30 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2


def sweep_scaling(
    cfg: CounterexampleConfig,
    quad: QuadratureSpec,
    workers: int = 1,
    slope_tol: float = 0.05,
    norm_ratio_max: float = 1.2,
    r2_min: float = 0.99,
) -> SweepReport:
    """Measure the (eps, q) grid and fit the scaling laws.

    Rows are independent work units on counter-based substreams, so the
    report is bit-identical for any worker count.  Noncritical exponents
    get a log-log slope fit of the source mass against the predicted
    (alpha-2) q + Q; the critical exponent instead checks that the source
    norm stays level while the outer Hessian mass grows affinely in
    log(1/eps).
    """
    if len(cfg.eps_list) < 4:
        raise ValueError("scaling fits need at least four splice radii")
    lo, hi = min(cfg.eps_list), max(cfg.eps_list)
    if hi / lo < 4.0:
        raise ValueError("splice radii must span at least two dyadic decades")
    if workers < 1:
        raise ValueError("worker count must be positive")

    cells = [(i, j) for i in range(len(cfg.eps_list)) for j in range(len(cfg.q_list))]
    if workers == 1:
        rows = [_sweep_row(cfg, quad, i, j) for i, j in cells]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(lambda ij: _sweep_row(cfg, quad, *ij), cells))

    omega = ball_volume(cfg.group(), 1.0, quad)

    fits: list[dict] = []
    verdicts: list[dict] = []
    eps_arr = np.array(cfg.eps_list)
    for j, q in enumerate(cfg.q_list):
        sub = [rows[i * len(cfg.q_list) + j] for i in range(len(cfg.eps_list))]
        beta = sub[0].predicted_exponent
        sup_ok = all(row.u_sup <= 1.0 + 1e-12 for row in sub)
        if abs(beta) < 1e-9:
            norms = np.array([row.f_norm for row in sub])
            ratio = float(np.max(norms) / np.min(norms))
            slope, intercept, r2 = _linear_fit(
                np.log(1.0 / eps_arr), np.array([row.hess_mass_outer for row in sub])
            )
            passed = ratio <= norm_ratio_max and r2 >= r2_min and sup_ok
            fits.append(
                {
                    "q": q,
                    "kind": "critical",
                    "f_norm_ratio": ratio,
                    "hess_outer_slope": slope,
                    "hess_outer_intercept": intercept,
                    "r2": r2,
                }
            )
            verdicts.append(
                {
                    "q": q,
                    "kind": "critical",
                    "passed": passed,
                    "detail": (
                        f"source norm ratio {ratio:.6g} (max {norm_ratio_max}),"
                        f" outer Hessian mass affine in log(1/eps) with R^2={r2:.6g}"
                    ),
                }
            )
        else:
            slope, intercept, r2 = _linear_fit(
                np.log(eps_arr), np.log(np.array([row.f_mass for row in sub]))
            )
            passed = abs(slope - beta) <= slope_tol and sup_ok
            fits.append(
                {
                    "q": q,
                    "kind": "power",
                    "fitted_slope": slope,
                    "predicted_slope": beta,
                    "intercept": intercept,
                    "r2": r2,
                }
            )
            verdicts.append(
                {
                    "q": q,
                    "kind": "power",
                    "passed": passed,
                    "detail": (
                        f"fitted log-log slope {slope:.6g} vs predicted {beta:.6g}"
                        f" (tolerance {slope_tol})"
                    ),
                }
            )

    config = {
        "d": cfg.d,
        "alpha": cfg.alpha,
        "eps_list": list(cfg.eps_list),
        "q_list": list(cfg.q_list),
        "glue_mode": cfg.glue_mode,
        "lam": cfg.ellipticity().lam,
        "Lam": cfg.ellipticity().Lam,
        "critical_q": cfg.critical_q(),
        "n_samples": quad.n_samples,
        "seed": quad.seed,
        "method": quad.method,
        "version": _pkg_version,
    }
    return SweepReport(
        config=config,
        rows=rows,
        fits=fits,
        verdicts=verdicts,
        unit_ball_volume=omega.value,
        unit_ball_volume_stderr=omega.stderr,
        passed=all(v["passed"] for v in verdicts),
    )


# --- pointwise trace bound ----------------------------------------------------


@dataclass(frozen=True)
class PointwiseBoundReport:
    """Margins of the two-sided trace bound for semiconvex supersolutions.

    All margins are nonnegative when the bound holds; the surrogate margin
    tracks the entry bound max_ij |M_ij| <= trace(M) + 2 c4 m implied by
    positive semidefiniteness of M + c4 I.
    """

    passed: bool
    n_points: int
    semiconvex_ok: bool
    supersolution_ok: bool
    lower_margin: float
    upper_margin: float
    surrogate_margin: float
    witness: Optional[dict]


def pointwise_bound_check(
    group: GroupDescriptor,
    gop: Callable[[np.ndarray], float],
    u: ScalarField,
    f: ScalarField,
    c4: float,
    e: Ellipticity,
    sampler: Callable[[int, np.random.Generator], np.ndarray],
    count: int,
    seed: int,
    scheme: FDScheme = DEFAULT_SCHEME,
    tol: float = 1e-8,
) -> PointwiseBoundReport:
    """Sample the two-sided bound on the horizontal trace.

    Assumes (and spot-checks) that u is semiconvex with constant c4 and a
    supersolution: gop of its horizontal Hessian is at most f.  Then at
    every sampled point

        -c4 * m - tol <= trace <= (f + m c4 (Lam - lam) + |gop(0)|) / lam + tol.
    """
    if not c4 >= 0.0:
        raise ValueError(f"semiconvexity constant must be nonnegative, got {c4}")
    m = group.m
    rng = substream(seed, "pointwise-bound")
    pts = _sample_admissible(u, sampler, count, rng)

    g0 = abs(float(gop(np.zeros((m, m)))))
    semiconvex_ok = supersolution_ok = True
    lower_margin = upper_margin = surrogate_margin = np.inf
    witness: Optional[dict] = None
    for x in pts:
        mat = horizontal_hessian_sym(group, u, x, scheme)
        eigs = sym_eigenvalues(mat).eigenvalues
        fx = float(f.evaluate(x))
        if eigs[0] < -c4 - tol:
            semiconvex_ok = False
        if float(gop(mat)) > fx + tol:
            supersolution_ok = False
        tr = float(np.trace(mat))
        low = tr + c4 * m
        up = (fx + m * c4 * (e.Lam - e.lam) + g0) / e.lam - tr
        sur = tr + 2.0 * c4 * m - float(np.max(np.abs(mat)))
        if min(low, up, sur) < min(lower_margin, upper_margin, surrogate_margin):
            witness = {"point": x.copy(), "trace": tr}
        lower_margin = min(lower_margin, low)
        upper_margin = min(upper_margin, up)
        surrogate_margin = min(surrogate_margin, sur)

    passed = (
        semiconvex_ok
        and supersolution_ok
        and lower_margin >= -tol
        and upper_margin >= -tol
        and surrogate_margin >= -tol
    )
    return PointwiseBoundReport(
        passed=passed,
        n_points=len(pts),
        semiconvex_ok=semiconvex_ok,
        supersolution_ok=supersolution_ok,
        lower_margin=float(lower_margin),
        upper_margin=float(upper_margin),
        surrogate_margin=float(surrogate_margin),
        witness=witness,
    )
