"""Quadrature and verification harnesses on gauge balls of H^d.

Monte-Carlo integration samples the bounding box of a gauge ball with
counter-based substreams, so every estimate is a pure function of
(seed, work-unit identity) and reports are bit-identical across worker
counts.  What is known exactly is not sampled: radially separable
integrands reduce in polar coordinates to the exact moment of |D rho|^(2q)
over the unit ball (`_gauge_moment`) times an exact one-dimensional radial
integral.  That keeps the Hessian masses at the critical exponent exact
where naive sampling has unbounded variance, and gives every Monte-Carlo
estimate of the sweep an exact value to be compared with.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .calculus import (
    RadialProfile,
    ScalarField,
    _gauge_field,
    _radial_eigenvalues,
    _sample_admissible,
    field_from_profile,
    horizontal_hessian_sym,
    radial_hessian,
)
from .group import GroupDescriptor, _gauge_parts, heisenberg
from .pucci import (
    Ellipticity,
    _relative_frobenius,
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
    "gauge_ball_sampler",
    "ball_volume",
    "lq_norm",
    "q_star",
    "alpha_for_critical_q",
    "counterexample_profile",
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
    """Monte-Carlo integration over a gauge ball: samples of its bounding box.

    Norm estimates require at least 10^3 samples.
    """

    n_samples: int
    seed: int

    def __post_init__(self) -> None:
        if self.n_samples < 1000:
            raise ValueError(
                f"norm estimates need at least 1000 samples, got {self.n_samples}"
            )


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
    A radius whose box volume underflows to 0 or overflows is rejected.
    """
    with np.errstate(over="ignore", under="ignore"):
        hw = float(r) ** np.array(group.dilation_weights, dtype=float)
        volume = np.prod(2.0 * hw)
    if not (r > 0.0 and 0.0 < volume < math.inf):
        raise ValueError(
            f"ball radius must be positive with a positive, finite box volume, got {r}"
        )
    return hw


# Box points per chunk of the Monte-Carlo integrator, so its memory is fixed.
# Chunk moments are merged as blocks, so like the rejection batch floors the
# chunk fixes the summation order: changing it changes report bytes.
_CHUNK = 2**15


def _sample_box(hw: np.ndarray, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill `out` (k, n) in place with uniform points of the box with half-widths `hw`.

    Same bits as ``rng.uniform(-1, 1, out.shape) * hw``: numpy computes that
    uniform as ``-1 + 2 u``.
    """
    rng.random(out=out)
    out *= 2.0
    out -= 1.0
    out *= hw
    return out


def _box_chunks(
    group: GroupDescriptor, r: float, count: int, rng: np.random.Generator
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (start, pts): `count` points of box(B_r) in chunks of `_CHUNK` rows.

    Each chunk refills one buffer (so `pts` lives until the next chunk) and
    continues the substream, so the chunks concatenate to a single draw.
    """
    hw = gauge_box_halfwidths(group, r)
    buf = np.empty((min(count, _CHUNK), group.n))
    for start in range(0, count, _CHUNK):
        yield start, _sample_box(hw, rng, buf[: min(_CHUNK, count - start)])


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
    hw = gauge_box_halfwidths(group, r)
    out = np.empty((count, group.n))
    got = 0
    for _ in range(10000):
        if got == count:
            break
        pts = _sample_box(hw, rng, np.empty((max(count - got, batch_floor), group.n)))
        rho, h2, _ = _gauge_parts(group, pts)
        pts = np.compress(keep(rho, h2, pts), pts, axis=0)[: count - got]
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


def _gauge_moment(group: GroupDescriptor, q: float) -> float:
    """The exact moment of |D rho|^(2q) over the unit gauge ball of H^d.

    In polar coordinates (Folland-Stein, Hardy Spaces on Homogeneous Groups,
    1982) it is omega_{2d-1} / (2(d+1)) B(1/2, (d+q)/2), omega_{2d-1} =
    2 pi^d / Gamma(d).  |D rho| is invariant under dilations, so over B_r
    the moment is r^Q times this; at q = 0 it is the volume |B_1|.
    """
    d = group.heisenberg_d
    omega = 2.0 * math.pi**d / math.gamma(d)
    s = 0.5 * (d + q)
    beta = math.gamma(0.5) * math.gamma(s) / math.gamma(s + 0.5)
    return omega / (2.0 * (d + 1)) * beta


def _exact_ball_volume(group: GroupDescriptor, r: float) -> float:
    """|B_r| = r^Q |B_1|."""
    return float(r) ** group.homogeneous_dimension * _gauge_moment(group, 0.0)


# An estimate further than this many standard errors from its exact value fails.
MAX_PULL = 5.0
# At the critical exponent the source norms may spread by at most this ratio,
# and the outer Hessian mass must fit an affine law in log(1/eps) this well.
NORM_RATIO_MAX = 1.2
R2_MIN = 0.99


def _pull(value: float, stderr: float, exact: float) -> float:
    """(value - exact) / stderr; infinite when there is no error bar to compare with."""
    return (value - exact) / stderr if stderr > 0.0 else math.inf


def _values_inside(
    u: ScalarField, group: GroupDescriptor, r: float, pts: np.ndarray
) -> np.ndarray:
    """`u` at the rows of `pts` inside B_r, gauging each row once.

    A field with `of_gauge` gets the gauge of the inside rows, any other
    field the rows themselves.  Both are selected with np.compress, which
    numpy runs several times faster than a boolean index, and the
    full-chunk gauge is released one part at a time as it is compressed.
    """
    if u.of_gauge is None:
        inside = _gauge_parts(group, pts)[0] < r
        return np.asarray(u.evaluate(np.compress(inside, pts, axis=0)), dtype=float)
    rho, h2, g = _gauge_parts(group, pts)
    inside = rho < r
    rho = np.compress(inside, rho)
    h2 = np.compress(inside, h2)
    g = np.compress(inside, g)
    return np.asarray(u.of_gauge(rho, h2, g), dtype=float)


def _box_masses(
    u: ScalarField, group: GroupDescriptor, r: float, qs: Sequence[float], quad: QuadratureSpec
) -> tuple[list[McEstimate], float, int]:
    """The Monte-Carlo integrator: masses of |u|^q over B_r for every q in `qs`.

    One box pass, keyed by (seed, u.name, r), evaluates `u` once per chunk
    on the points inside B_r (`_values_inside`).  Per q, chunk means and
    sums of squared deviations merge in chunk order by Chan, Golub &
    LeVeque's pairwise update (Am. Stat. 1983); standard errors use
    ddof = 1.  Non-finite values count as rejected, and above 1e-3 of the
    inside points they raise IllPosedIntegrandError; a finite |u|^q whose
    moments overflow a float raises OverflowError.  Also returns the
    rejected fraction and n_inside.
    """
    rng = substream(quad.seed, "box-mass", u.name, repr(float(r)))
    n = quad.n_samples
    mean, m2 = [0.0] * len(qs), [0.0] * len(qs)
    n_inside = n_bad = 0
    for start, pts in _box_chunks(group, r, n, rng):
        k = len(pts)
        vals = _values_inside(u, group, r, pts)
        k_in = len(vals)
        bad = ~np.isfinite(vals)
        chunk_bad = int(np.count_nonzero(bad))
        n_inside += k_in
        n_bad += chunk_bad
        mag = np.abs(vals)
        for j, q in enumerate(qs):
            with np.errstate(over="ignore", invalid="ignore"):
                w = mag**q
                if chunk_bad:
                    w = np.where(bad, 0.0, w)
                m = float(np.sum(w)) / k
                # Each of the k - k_in outside zeros deviates from m by m.
                ss = float(np.sum((w - m) ** 2)) + (k - k_in) * m * m
            delta = m - mean[j]
            mean[j] += delta * k / (start + k)
            m2[j] += ss + delta * delta * start * k / (start + k)
            if not (math.isfinite(mean[j]) and math.isfinite(m2[j])):
                raise OverflowError(f"|{u.name}|^{q} over B_{r} overflows a float")
    rejected = n_bad / max(1, n_inside)
    if rejected > 1e-3:
        raise IllPosedIntegrandError(
            f"{u.name!r} was unevaluable on {rejected:.2%} of samples in B_{r}"
        )
    vbox = float(np.prod(2.0 * gauge_box_halfwidths(group, r)))
    masses = [
        McEstimate(value=vbox * m, stderr=vbox * math.sqrt(s / (n - 1)) / math.sqrt(n))
        for m, s in zip(mean, m2)
    ]
    return masses, rejected, n_inside


def ball_volume(group: GroupDescriptor, r: float, quad: QuadratureSpec) -> McEstimate:
    """Volume of the gauge ball B_r with a standard error: the q = 0 mass of 1."""
    one = _gauge_field(group, "one", lambda rho, h2, g: np.ones(np.shape(rho)))
    return _box_masses(one, group, r, (0.0,), quad)[0][0]


def lq_norm(
    u: ScalarField, group: GroupDescriptor, r: float, qs: Sequence[float], quad: QuadratureSpec
) -> tuple[LqEstimate, ...]:
    """L^q(B_r) norms of a field for every exponent in `qs`, from one `_box_masses` pass."""
    qs = tuple(float(q) for q in qs)
    if not qs or not all(q > 1.0 for q in qs):
        raise ValueError(f"need at least one exponent, each above 1, got {qs}")
    masses, rejected, n_inside = _box_masses(u, group, r, qs, quad)
    out = []
    for q, m in zip(qs, masses):
        norm = m.value ** (1.0 / q)
        norm_se = norm * m.stderr / (q * m.value) if m.value > 0.0 else m.stderr ** (1.0 / q)
        out.append(LqEstimate(norm, norm_se, m.value, m.stderr, rejected, n_inside))
    return tuple(out)


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
        # A repeated radius or exponent would repeat rows and inflate a fit.
        if any(len(set(v)) < len(v) for v in (self.eps_list, self.q_list)):
            raise ValueError("splice radii and exponents must be distinct")
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
    branch, but the splice radius is outside ``smooth_radii``: second
    derivatives do not exist there classically.
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
        smooth_radii=lambda r: outer.radius_ok(r) & (np.asarray(r) != eps),
    )


def counterexample_rhs_field(cfg: CounterexampleConfig, eps: float) -> ScalarField:
    """Vectorized right-hand side, extended by its limit 0 on the axis."""
    amp = cfg.rhs_amplitude * eps ** (cfg.alpha - 2.0)
    return _gauge_field(
        cfg.group(), f"rhs[{eps}]", lambda rho, h2, g: np.where(rho < eps, -amp * g, 0.0)
    )


# --- annihilation of the maximal operator ------------------------------------


# Outer-branch points whose stencil Hessian is compared with the closed form,
# and the relative Frobenius tolerance of that comparison.
_FD_CHECKS, _FD_RTOL = 12, 1e-4


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
    eigs = _radial_eigenvalues(cfg.d, profile, rho, g)
    mplus = pucci_plus_of_eigenvalues(eigs, e)
    f = counterexample_rhs_field(cfg, eps)
    rhs = f.evaluate(pts) if f.of_gauge is None else f.of_gauge(rho, h2, g)
    residual = np.abs(mplus - rhs) / scale

    worst = int(np.argmax(residual))
    outer_res = float(np.max(residual[~inner])) if np.any(~inner) else 0.0
    inner_res = float(np.max(residual[inner])) if np.any(inner) else 0.0

    # Route cross-check: full matrix + Jacobi eigensolver on a subsample.
    sub = rng.choice(len(pts), size=min(32, len(pts)), replace=False)
    via_matrix = pucci_plus(radial_hessian(group, profile, pts[sub]).matrix, e)
    matrix_dev = float(np.max(np.abs(via_matrix - mplus[sub]) / scale, initial=0.0))

    # Finite-difference cross-check on the outer branch, away from the
    # splice and the axis so the stencil sees a smooth function.
    u = field_from_profile(group, profile)
    lo = max(0.15, eps + 0.03)
    fd_ok = (~inner) & (rho > lo) & (rho < 0.9) & (h2 > 0.05**2)
    fd_idx = np.flatnonzero(fd_ok)
    if len(fd_idx) > _FD_CHECKS:
        fd_idx = fd_idx[rng.choice(len(fd_idx), size=_FD_CHECKS, replace=False)]
    rel = _relative_frobenius(
        horizontal_hessian_sym(group, u, pts[fd_idx]),
        radial_hessian(group, profile, pts[fd_idx]).matrix,
    )
    fd_excess = float(np.max(rel / _FD_RTOL, initial=0.0))

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
    """One (eps, q) cell: the measured source mass against its exact value.

    Masses are q-th powers of norms.  The source mass is the `lq_norm`
    estimate of the right-hand side over B_eps from the radius's shared box
    pass, with ``n_inside`` of its samples in the ball; ``f_mass_exact`` is
    its closed form and ``f_pull`` the distance between the two in standard
    errors.  The Hessian magnitude is the pointwise spectral norm (largest
    absolute eigenvalue), and both of its masses are exact: the closed-form
    moment of |D rho|^(2q) scaled to B_eps inside, where the profile is a
    parabola, and times an exact radial integral outside.
    """

    eps: float
    q: float
    predicted_exponent: float
    f_mass: float
    f_mass_stderr: float
    f_mass_exact: float
    f_pull: float
    n_inside: int
    f_norm: float
    f_norm_stderr: float
    hess_mass_inner: float
    hess_mass_outer: float
    hess_norm_ball: float
    hess_norm_outer: float
    u_sup: float


@dataclass(frozen=True)
class SweepReport:
    rows: list[SweepRow]
    fits: list[dict]
    verdicts: list[dict]
    passed: bool


def _sweep_radius(cfg: CounterexampleConfig, quad: QuadratureSpec, eps: float) -> list[SweepRow]:
    """The rows of one splice radius, one per exponent, from one `lq_norm` pass."""
    fs = lq_norm(counterexample_rhs_field(cfg, eps), cfg.group(), eps, cfg.q_list, quad)
    return [_sweep_row(cfg, eps, q, f) for q, f in zip(cfg.q_list, fs)]


def _sweep_row(cfg: CounterexampleConfig, eps: float, q: float, f: LqEstimate) -> SweepRow:
    group = cfg.group()
    big_q = float(cfg.homogeneous_dim)
    alpha = cfg.alpha
    beta = (alpha - 2.0) * q + big_q

    # Exact moment of eps^((alpha-2)q) |D rho|^(2q) over B_eps.
    moment = _gauge_moment(group, q)
    inner_moment = eps ** ((alpha - 2.0) * q) * eps**big_q * moment
    f_exact = cfg.rhs_amplitude**q * inner_moment
    hess_inner = (6.0 * cfg.inner_coefficient) ** q * inner_moment
    radial_integral = (
        math.log(1.0 / eps) if abs(beta) < 1e-9 else (1.0 - eps**beta) / beta
    )
    hess_outer = (3.0 * alpha) ** q * big_q * moment * radial_integral

    return SweepRow(
        eps=eps,
        q=q,
        predicted_exponent=beta,
        f_mass=f.mass,
        f_mass_stderr=f.mass_stderr,
        f_mass_exact=f_exact,
        f_pull=_pull(f.mass, f.mass_stderr, f_exact),
        n_inside=f.n_inside,
        f_norm=f.norm,
        f_norm_stderr=f.norm_stderr,
        hess_mass_inner=hess_inner,
        hess_mass_outer=hess_outer,
        hess_norm_ball=(hess_inner + hess_outer) ** (1.0 / q),
        hess_norm_outer=hess_outer ** (1.0 / q),
        # The profile decreases in rho, so its sup is psi(0).
        u_sup=1.0 - (1.0 - cfg.inner_coefficient) * eps**alpha,
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
) -> SweepReport:
    """Measure the (eps, q) grid and fit the scaling laws.

    Each radius is one work unit, a box pass on its own counter-based
    substream for all exponents, so the report is bit-identical for any
    worker count.  Noncritical exponents get a log-log slope fit of the
    source mass against the predicted (alpha-2) q + Q; the critical
    exponent instead checks that the source norm stays level while the
    outer Hessian mass grows affinely in log(1/eps).  Either verdict also
    fails when a measured source mass is more than MAX_PULL standard
    errors from its exact value.
    """
    if len(cfg.eps_list) < 4:
        raise ValueError("scaling fits need at least four splice radii")
    lo, hi = min(cfg.eps_list), max(cfg.eps_list)
    if hi / lo < 4.0:
        raise ValueError("splice radii must span at least two dyadic decades")

    with ThreadPoolExecutor(max_workers=workers) as pool:
        per_radius = pool.map(lambda eps: _sweep_radius(cfg, quad, eps), cfg.eps_list)
        rows = [row for radius_rows in per_radius for row in radius_rows]

    fits: list[dict] = []
    verdicts: list[dict] = []
    eps_arr = np.array(cfg.eps_list)
    for j, q in enumerate(cfg.q_list):
        sub = [rows[i * len(cfg.q_list) + j] for i in range(len(cfg.eps_list))]
        beta = sub[0].predicted_exponent
        if abs(beta) < 1e-9:
            norms = np.array([row.f_norm for row in sub])
            ratio = float(np.max(norms) / np.min(norms))
            slope, intercept, r2 = _linear_fit(
                np.log(1.0 / eps_arr), np.array([row.hess_mass_outer for row in sub])
            )
            passed = ratio <= NORM_RATIO_MAX and r2 >= R2_MIN
            fit = {
                "q": q,
                "kind": "critical",
                "f_norm_ratio": ratio,
                "hess_outer_slope": slope,
                "hess_outer_intercept": intercept,
                "r2": r2,
            }
            detail = (
                f"source norm ratio {ratio:.6g} (max {NORM_RATIO_MAX}),"
                f" outer Hessian mass affine in log(1/eps) with R^2={r2:.6g}"
            )
        else:
            slope, intercept, r2 = _linear_fit(
                np.log(eps_arr), np.log(np.array([row.f_mass for row in sub]))
            )
            passed = abs(slope - beta) <= slope_tol
            fit = {
                "q": q,
                "kind": "power",
                "fitted_slope": slope,
                "predicted_slope": beta,
                "intercept": intercept,
                "r2": r2,
            }
            detail = (
                f"fitted log-log slope {slope:.6g} vs predicted {beta:.6g}"
                f" (tolerance {slope_tol})"
            )
        worst_pull = max((row.f_pull for row in sub), key=abs)
        fits.append(fit)
        verdicts.append(
            {
                "q": q,
                "kind": fit["kind"],
                "passed": passed and abs(worst_pull) <= MAX_PULL,
                "detail": (
                    f"{detail}, worst source-mass pull {worst_pull:.3g}"
                    f" (limit {MAX_PULL:g})"
                ),
            }
        )

    return SweepReport(
        rows=rows,
        fits=fits,
        verdicts=verdicts,
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
    gop: Callable[[np.ndarray], np.ndarray],
    u: ScalarField,
    f: ScalarField,
    c4: float,
    e: Ellipticity,
    sampler: Callable[[int, np.random.Generator], np.ndarray],
    count: int,
    seed: int,
    tol: float = 1e-8,
) -> PointwiseBoundReport:
    """Sample the two-sided bound on the horizontal trace.

    Assumes (and spot-checks) that u is semiconvex with constant c4 and a
    supersolution: gop, mapping matrix stacks (..., m, m) to (...), of its
    horizontal Hessian is at most f.  Then at every sampled point

        -c4 * m - tol <= trace <= (f + m c4 (Lam - lam) + |gop(0)|) / lam + tol.
    """
    if not 0.0 <= c4 < math.inf:
        raise ValueError(f"semiconvexity constant must be finite and nonnegative, got {c4}")
    if count < 1:
        raise ValueError(f"the bound needs at least one point, got count={count}")
    m = group.m
    rng = substream(seed, "pointwise-bound")
    pts = _sample_admissible(u, sampler, count, rng)

    g0 = abs(float(gop(np.zeros((m, m)))))
    mats = horizontal_hessian_sym(group, u, pts)
    fx = np.asarray(f.evaluate(pts), dtype=float)
    semiconvex_ok = not np.any(sym_eigenvalues(mats).eigenvalues[:, 0] < -c4 - tol)
    supersolution_ok = not np.any(np.asarray(gop(mats)) > fx + tol)
    tr = np.trace(mats, axis1=-2, axis2=-1)
    low = tr + c4 * m
    up = (fx + m * c4 * (e.Lam - e.lam) + g0) / e.lam - tr
    sur = tr + 2.0 * c4 * m - np.max(np.abs(mats), axis=(-2, -1))
    lower_margin, upper_margin, surrogate_margin = (float(v.min()) for v in (low, up, sur))
    worst = int(np.argmin(np.minimum(np.minimum(low, up), sur)))
    witness = {"point": pts[worst].copy(), "trace": float(tr[worst])}

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
