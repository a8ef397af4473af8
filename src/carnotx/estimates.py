"""Quadrature and verification harnesses on gauge balls of H^d.

Monte-Carlo integration samples the bounding box of a gauge ball with
keyed substreams, so every estimate is a pure function of
(seed, work-unit identity) and reports are bit-identical across worker
counts.  What is known exactly is not sampled: radially separable
integrands reduce in polar coordinates to the exact moment of |D rho|^(2q)
over the unit ball (`_gauge_moment`) times an exact one-dimensional radial
integral.  That keeps the Hessian masses at the critical exponent exact
where naive sampling has unbounded variance, and gives every Monte-Carlo
estimate of the sweep an exact value to be compared with.
"""

from __future__ import annotations

import contextvars
import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .calculus import (
    RadialProfile,
    ScalarField,
    _MAX_ROUNDS,
    _gauge_field,
    _radial_eigenvalues,
    _rejection_sample,
    field_from_profile,
    horizontal_hessian_sym,
    radial_hessian,
)
from .catalog import constant_field, horizontal_quadratic
from .group import (
    GroupDescriptor,
    _fourth_root,
    _gauge,
    _gauge_fourth,
    _gauge_parts,
    _gauge_slope,
    heisenberg,
)
from .pucci import (
    Ellipticity,
    _frobenius,
    pucci_minus,
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
    "gauge_ball_sampler",
    "ball_volume",
    "lq_norm",
    "counterexample_profile",
    "counterexample_rhs_field",
    "verify_pucci_annihilation",
    "sweep_scaling",
    "pointwise_bound_check",
]

# Exclusion half-widths for sets where derivative formulas degenerate.
AXIS_EXCLUSION = 1e-8
SPLICE_EXCLUSION = 1e-6
# The annulus where a stencil sees a smooth gauge-radial field, as
# `_stencil_points` draws it: _FD_RHO_MIN <= rho < _FD_RHO_MAX and |x_H| >=
# _FD_MIN_HORIZONTAL.  The annihilation check keeps _FD_SPLICE_GAP above the
# splice radius as well.
_FD_RHO_MIN, _FD_RHO_MAX, _FD_MIN_HORIZONTAL, _FD_SPLICE_GAP = 0.15, 0.9, 0.05, 0.03
# The batch floor of `gauge_ball_sampler`'s rejection rounds.
_BALL_BATCH = 64


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
    A radius whose box volume is subnormal, underflows to 0 or overflows is
    rejected: the exact ball volume, smaller still, would round to 0.
    """
    with np.errstate(over="ignore", under="ignore"):
        hw = float(r) ** np.array(group.dilation_weights, dtype=float)
        volume = np.prod(2.0 * hw)
    if not (r > 0.0 and np.finfo(float).tiny <= volume < math.inf):
        raise ValueError(
            f"ball radius must be positive with a normal, finite box volume, got {r}"
        )
    return hw


# Box points per chunk of the Monte-Carlo integrator, so its memory is fixed.
# Chunk moments are merged as blocks, so like the rejection batch floors the
# chunk fixes the summation order: changing it changes report bytes.
_CHUNK = 2**15


# The box fill runs over rows of gcd(k, _FILL_ROW) points.  Any row gives the
# same products; on a 2^15-point chunk 2048-point rows take about 0.6 of the
# time of 256-point ones (H^1 to H^3).
_FILL_ROW = 2048


def _box_span(hw: np.ndarray) -> np.ndarray:
    """The box widths 2 hw tiled `_FILL_ROW` times, the row that `_sample_box` scales by."""
    return np.tile(2.0 * hw, _FILL_ROW)


def _sample_box(span: np.ndarray, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill `out` (k, n) in place with uniform points of the box of widths `span` (`_box_span`).

    Same bits as ``rng.uniform(-1, 1, out.shape) * hw``, in two passes over
    the draw ``u``: ``u - 0.5``, then each column times ``2 h``.  Both are
    exact in floating point, so the one rounding of the product is that of
    ``(2 u - 1) h``, and numpy computes the uniform as ``-1 + 2 u``.  Both
    passes run over rows of m = gcd(k, `_FILL_ROW`) points, the second
    against the first m n entries of `span`, ``2 hw`` tiled m times: the
    products of ``out *= 2 hw``, whose broadcast over a few columns runs
    numpy's inner loop n elements at a time and takes about three times as
    long on H^1.
    """
    rng.random(out=out)
    k, n = out.shape
    m = math.gcd(k, _FILL_ROW)
    rows = out.reshape(k // m, m * n)
    rows -= 0.5
    rows *= span[: m * n]
    return out


def _box_chunks(
    group: GroupDescriptor, r: float, count: int, rng: np.random.Generator
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (start, pts): `count` points of box(B_r) in chunks of `_CHUNK` rows.

    Each chunk refills one buffer (so `pts` lives until the next chunk) and
    continues the substream, so the chunks concatenate to a single draw.
    """
    span = _box_span(gauge_box_halfwidths(group, r))
    buf = np.empty((min(count, _CHUNK), group.n))
    for start in range(0, count, _CHUNK):
        yield start, _sample_box(span, rng, buf[: min(_CHUNK, count - start)])


def _box_draw(
    group: GroupDescriptor, r: float
) -> Callable[[int, np.random.Generator], np.ndarray]:
    """Draws of uniform points of box(B_r), as ``_rejection_sample`` takes them."""
    span = _box_span(gauge_box_halfwidths(group, r))
    return lambda k, rng: _sample_box(span, rng, np.empty((k, group.n)))


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
    finite-difference stencils away from splice radii.  An empty annulus,
    unless 0 <= rho_min < rho_max and 0 <= min_horizontal < rho_max, is a
    ValueError.
    """
    if not (0.0 <= rho_min < rho_max and 0.0 <= min_horizontal < rho_max):
        raise ValueError(
            "an annulus needs 0 <= rho_min < rho_max and 0 <= min_horizontal < rho_max,"
            f" got rho_min={rho_min}, rho_max={rho_max}, min_horizontal={min_horizontal}"
        )
    draw = _box_draw(group, rho_max)

    def keep(pts: np.ndarray) -> np.ndarray:
        rho, h2 = _gauge(group, pts)
        mask = (rho < rho_max) & (rho >= rho_min) & (h2 >= min_horizontal**2)
        for center, width in exclude_shells:
            mask &= np.abs(rho - center) >= width
        return mask

    return lambda count, rng: _rejection_sample(draw, keep, count, rng, _BALL_BATCH)


def _stencil_points(
    group: GroupDescriptor, rho_min: float, count: int, rng: np.random.Generator, where: str
) -> np.ndarray:
    """`count` draws of the stencil annulus from `rho_min` out, naming `where` if they run out."""
    draw = gauge_ball_sampler(group, _FD_RHO_MAX, rho_min, _FD_MIN_HORIZONTAL)
    try:
        return draw(count, rng)
    except RuntimeError as err:
        annulus = f"the stencil annulus {rho_min} <= rho < {_FD_RHO_MAX}"
        raise RuntimeError(f"{where}: {annulus} is too thin to sample ({err})") from err


def _stencil_error(
    group: GroupDescriptor, profiles: Sequence[RadialProfile], pts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Relative Frobenius distances (len(profiles), N) of stencil Hessians from the closed form.

    They come with the stencil and closed-form Hessians (len(profiles), N,
    m, m) that they compare.  The profiles are stacked into one whose psi,
    psi' and psi'' carry them on a leading axis, so one stencil pass gauges
    each distinct stencil point once for all of them.  Every profile keeps
    the bits of a call on it alone.  A profile with a non-finite error, or
    with an exact Hessian whose norm is zero or subnormal, leaves nothing
    to compare: ValueError.
    """

    def stacked(attr: str) -> Callable[[np.ndarray], np.ndarray]:
        return lambda r: np.stack([np.asarray(getattr(p, attr)(r), dtype=float) for p in profiles])

    profile = RadialProfile(
        name=",".join(p.name for p in profiles),
        psi=stacked("psi"),
        psi_prime=stacked("psi_prime"),
        psi_second=stacked("psi_second"),
        smooth_radii=lambda r: np.logical_and.reduce([p.radius_ok(r) for p in profiles]),
    )
    # A product like inf * 0 in psi'' is caught below as a NaN, not warned about.
    with np.errstate(invalid="ignore"):
        exact = radial_hessian(group, profile, pts).matrix
        stencil = horizontal_hessian_sym(group, field_from_profile(group, profile), pts)
    norms = _frobenius(exact)
    for p, norm in zip(profiles, norms):
        if not np.isfinite(norm).all():
            raise ValueError(f"profile {p.name}: a relative Hessian error is not finite")
        if not (norm >= np.finfo(float).tiny).all():
            raise ValueError(
                f"profile {p.name}: an exact Hessian has zero or subnormal Frobenius norm,"
                " so no relative error can be formed against it"
            )
    # Scaled before squaring: a difference's entries below 1e-162 square to 0.
    with np.errstate(invalid="ignore"):
        errors = _frobenius((stencil - exact) / norms[..., None, None])
    for p, err in zip(profiles, errors):
        if not np.isfinite(err).all():
            raise ValueError(f"profile {p.name}: a relative Hessian error is not finite")
    return errors, stencil, exact


# The bound on verify-radial's relative Hessian error.
RADIAL_TOL = 1e-5
# The exponents alpha that the stencil resolves within RADIAL_TOL: over seeds 1-20
# at 300 points, H^1, the worst group, reads 1.4e-6 at alpha = 8 (3.2e-5 at 10)
# and 3.1e-7 at -50 (1.6e-5 at -100).
_RADIAL_ALPHA = (-50.0, 8.0)


def _quartic_profile() -> RadialProfile:
    return RadialProfile(
        name="quartic",
        psi=lambda r: np.asarray(r, dtype=float) ** 4,
        psi_prime=lambda r: 4.0 * np.asarray(r, dtype=float) ** 3,
        psi_second=lambda r: 12.0 * np.asarray(r, dtype=float) ** 2,
    )


@dataclass(frozen=True)
class RadialCheck:
    """A profile's worst `_stencil_error` over the drawn points; it passes up to RADIAL_TOL.

    ``witness`` holds the worst point and the stencil and exact Hessians there."""

    profile: str
    max_rel_error: float
    passed: bool
    witness: dict


def radial_hessian_check(
    group: GroupDescriptor, alpha: float, points: int, seed: int
) -> list[RadialCheck]:
    """The closed-form radial Hessians of 1 - rho^alpha and rho^4 against the stencil.

    Each row's witness comes from the one stencil pass that both share.  An
    alpha outside _RADIAL_ALPHA, past the stencil's truncation, or points < 1
    is a ValueError."""
    lo, hi = _RADIAL_ALPHA
    if not lo <= alpha <= hi:
        raise ValueError(f"alpha {alpha!r} is outside the stencil's range [{lo:g}, {hi:g}]")
    if points < 1:
        raise ValueError(f"the radial check needs at least one point, got points={points}")
    rng = substream(seed, "verify-radial")
    pts = _stencil_points(group, _FD_RHO_MIN, points, rng, f"group h:{group.heisenberg_d}")
    profiles = (power_profile(alpha), _quartic_profile())
    errors, stencil, exact = _stencil_error(group, profiles, pts)
    rows = []
    for p, err, hess, closed in zip(profiles, errors, stencil, exact):
        i = int(np.argmax(err))
        witness = {"point": pts[i].copy(), "stencil": hess[i].copy(), "exact": closed[i].copy()}
        rows.append(RadialCheck(p.name, float(err[i]), bool(err[i] <= RADIAL_TOL), witness))
    return rows


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


def _box_masses(
    u: ScalarField, group: GroupDescriptor, r: float, qs: Sequence[float], quad: QuadratureSpec
) -> tuple[list[McEstimate], float, int]:
    """The Monte-Carlo integrator: masses of |u|^q over B_r for every q in `qs`.

    One box pass, keyed by (seed, u.name, r), draws `_CHUNK` points at a
    time and computes rho^4 and |x_H|^2 of every row (`_gauge_fourth`).
    Everything after that runs on the rows inside B_r only.  One
    `flatnonzero` finds the rows whose rho^4 is within reach of r^4; rho
    (`_fourth_root`) is taken there and compared with r, so the rows kept
    are exactly those with rho < r.  A field with `of_gauge` gets their rho
    and |x_H|^2 and |D rho|^2 computed on them alone; any other field gets
    the rows themselves.  Rows are gathered with `take`, which numpy runs
    several times faster than a boolean index.  Points, rho^4, |x_H|^2 and
    the weights live in buffers allocated once per pass.  Per q, chunk
    means and sums of squared deviations merge in chunk order by Chan,
    Golub & LeVeque's pairwise update (Am. Stat. 1983); standard errors use
    ddof = 1.  A chunk's sum of squares is an `einsum`, numpy's own loop:
    a BLAS dot's bits change with the number of BLAS threads.  The field is
    evaluated outside the chunk's one `np.errstate`, so its own warnings
    surface.  Non-finite values count as rejected, and above 1e-3 of the
    inside points they raise IllPosedIntegrandError; a finite |u|^q whose
    moments overflow a float raises OverflowError.  Also returns the
    rejected fraction and n_inside.
    """
    rng = substream(quad.seed, "box-mass", u.name, repr(float(r)))
    vbox = float(np.prod(2.0 * gauge_box_halfwidths(group, r)))
    n = quad.n_samples
    size = min(n, _CHUNK)
    gauge_buf, w_buf = np.empty((3, size)), np.empty(size)
    # rho < r needs rho^4 < r^4, and the margin covers the rounding of r^4
    # and of the fourth root many times over.  Below 1e-300 r^4 may be
    # subnormal, and every row is in reach.
    r4 = float(r) ** 4
    reach = r4 * (1.0 + 1e-9) if r4 >= 1e-300 else math.inf
    mean, m2 = [0.0] * len(qs), [0.0] * len(qs)
    n_inside = n_bad = 0
    for start, pts in _box_chunks(group, r, n, rng):
        k = len(pts)
        rho4, h2 = _gauge_fourth(group, pts, out=gauge_buf[:, :k])
        inside = np.flatnonzero(rho4 < reach)
        rho_in = _fourth_root(rho4.take(inside))
        within = rho_in < r
        if not within.all():  # rows in the margin
            inside, rho_in = inside[within], rho_in[within]
        if u.of_gauge is None:
            vals = u.evaluate(pts.take(inside, axis=0))
        else:
            h2_in = h2.take(inside)
            vals = u.of_gauge(rho_in, h2_in, _gauge_slope(rho_in, h2_in))
        vals = np.asarray(vals, dtype=float)
        k_in = len(inside)
        bad = ~np.isfinite(vals)
        chunk_bad = int(np.count_nonzero(bad))
        n_inside += k_in
        n_bad += chunk_bad
        w = w_buf[:k_in]
        with np.errstate(over="ignore", invalid="ignore"):
            for j, q in enumerate(qs):
                np.abs(vals, out=w)
                w **= q  # numpy's ** on arrays, which takes q = 2 to np.square
                if chunk_bad:
                    w[bad] = 0.0
                m = float(np.sum(w)) / k
                np.subtract(w, m, out=w)
                # Each of the k - k_in outside zeros deviates from m by m.
                ss = float(np.einsum("i,i->", w, w)) + (k - k_in) * m * m
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
    masses = [
        McEstimate(value=vbox * m, stderr=vbox * math.sqrt(s / (n - 1)) / math.sqrt(n))
        for m, s in zip(mean, m2)
    ]
    return masses, rejected, n_inside


def ball_volume(group: GroupDescriptor, r: float, quad: QuadratureSpec) -> McEstimate:
    """Volume of the gauge ball B_r with a standard error: the q = 0 mass of 1."""
    one = _gauge_field(group, "one", lambda rho, h2, g: np.ones(np.shape(rho)))
    return _box_masses(one, group, r, (0.0,), quad)[0][0]


@dataclass(frozen=True)
class BallVolumeCheck:
    """A sampled gauge-ball volume against the exact r^Q |B_1|."""

    r: float
    volume: float
    stderr: float
    exact: float
    pull: float
    passed: bool


def ball_volume_check(
    group: GroupDescriptor, radii: Sequence[float], quad: QuadratureSpec
) -> list[BallVolumeCheck]:
    """`ball_volume` at each radius; a row passes within MAX_PULL standard errors of exact.

    No radii is a ValueError, not an empty list that every row passes."""
    if len(radii) == 0:
        raise ValueError("the ball-volume check needs at least one radius in radii")
    rows = []
    for r in radii:
        est, exact = ball_volume(group, r, quad), _exact_ball_volume(group, r)
        pull = _pull(est.value, est.stderr, exact)
        rows.append(BallVolumeCheck(r, est.value, est.stderr, exact, pull, abs(pull) <= MAX_PULL))
    return rows


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


@dataclass(frozen=True)
class CounterexampleConfig:
    """Parameters of the spliced gauge-power family on H^d.

    The profile is 1 - rho^alpha outside radius eps and the parabola with
    coefficient alpha/2 inside, which matches value and slope at the splice:
    a slope jump would put a measure on rho = eps into the horizontal
    Hessian.  The ellipticity window is lam = 1/(Q-1), Lam = 1/(1-alpha):
    exactly the window in which the maximal operator annihilates the outer
    branch.
    """

    d: int
    alpha: float
    eps_list: tuple[float, ...]
    q_list: tuple[float, ...]

    def __post_init__(self) -> None:
        self.group()  # a ValueError unless d names a Heisenberg group
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
        if not self.ellipticity().Lam > self.ellipticity().lam:
            raise ValueError("degenerate ellipticity window")

    @property
    def homogeneous_dim(self) -> int:
        return self.group().homogeneous_dimension

    @property
    def inner_coefficient(self) -> float:
        return 0.5 * self.alpha

    @property
    def rhs_amplitude(self) -> float:
        """Magnitude coefficient of the inner right-hand side.

        Equals 2 a Q / (Q - 1) where a = alpha/2 is the inner parabola
        coefficient, so alpha Q / (Q - 1).
        """
        big_q = self.homogeneous_dim
        return 2.0 * self.inner_coefficient * big_q / (big_q - 1.0)

    def ellipticity(self) -> Ellipticity:
        big_q = self.homogeneous_dim
        return Ellipticity(lam=1.0 / (big_q - 1.0), Lam=1.0 / (1.0 - self.alpha))

    def group(self) -> GroupDescriptor:
        return heisenberg(self.d)

    def critical_q(self) -> float:
        """Critical integrability exponent Q / (2 - alpha)."""
        return float(self.homogeneous_dim) / (2.0 - float(self.alpha))


def power_profile(alpha: float) -> RadialProfile:
    """The gauge power 1 - rho^alpha, extended by its limit 1 at rho = 0."""

    def positive(part: Callable[[np.ndarray], np.ndarray], at_zero: float) -> Callable:
        # part on the radii r > 0, fed 1 elsewhere, and at_zero where r <= 0.
        def guarded(r: np.ndarray) -> np.ndarray:
            r = np.asarray(r, dtype=float)
            return np.where(r > 0.0, part(np.where(r > 0.0, r, 1.0)), at_zero)

        return guarded

    return RadialProfile(
        name=f"power[{alpha}]",
        # expm1 keeps the digits that 1 - rho^alpha cancels away at small alpha.
        psi=positive(lambda r: -np.expm1(alpha * np.log(r)), 1.0),
        psi_prime=positive(lambda r: -alpha * r ** (alpha - 1.0), 0.0),
        psi_second=positive(lambda r: alpha * (1.0 - alpha) * r ** (alpha - 2.0), 0.0),
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
    curvature = cfg.inner_coefficient * eps ** (alpha - 2.0)
    cont = (1.0 - cfg.inner_coefficient) * eps**alpha  # matches the branches at rho = eps
    outer = power_profile(alpha)

    def spliced(outer_part: Callable, inner_part: Callable) -> Callable:
        # outer_part on the radii r >= eps and inner_part below them.
        def part(r: np.ndarray) -> np.ndarray:
            r = np.asarray(r, dtype=float)
            return np.where(r >= eps, outer_part(r), inner_part(r))

        return part

    return RadialProfile(
        name=f"splice[alpha={alpha},eps={eps}]",
        psi=spliced(outer.psi, lambda r: 1.0 - curvature * r**2 - cont),
        psi_prime=spliced(outer.psi_prime, lambda r: -2.0 * curvature * r),
        psi_second=spliced(outer.psi_second, lambda r: np.full_like(r, -2.0 * curvature)),
        smooth_radii=lambda r: outer.radius_ok(r) & (np.asarray(r) != eps),
    )


def counterexample_rhs_field(cfg: CounterexampleConfig, eps: float) -> ScalarField:
    """Vectorized right-hand side, extended by its limit 0 on the axis."""
    amp = cfg.rhs_amplitude * eps ** (cfg.alpha - 2.0)
    return _gauge_field(
        cfg.group(), f"rhs[{eps}]", lambda rho, h2, g: np.where(rho < eps, -amp * g, 0.0)
    )


# --- annihilation of the maximal operator ------------------------------------


# Stencil points of the outer branch compared with the closed form, and the
# relative Frobenius tolerance of that comparison.
_FD_CHECKS, _FD_RTOL = 12, 1e-4


@dataclass(frozen=True)
class AnnihilationReport:
    """Sampled residuals of the extremal-operator identities.

    Residuals are reported relative to the natural scale eps**(alpha-2).
    ``matrix_route_dev`` is the worst disagreement between the closed-form
    eigenvalue multiset and the LAPACK eigenvalues of the full matrix;
    ``fd_max_excess`` is the worst finite-difference Hessian deviation at
    the _FD_CHECKS stencil points in units of its tolerance (<= 1 is good).
    """

    passed: bool
    eps: float
    n_outer: int
    n_inner: int
    max_outer_residual: float
    max_inner_residual: float
    witness: Optional[np.ndarray]
    matrix_route_dev: float
    fd_max_excess: float
    n_excluded_axis: int
    n_excluded_shell: int


def _annihilation_reach(cfg: CounterexampleConfig, eps: float, n_samples: int) -> float:
    """The up-front rules of `verify_pucci_annihilation`, cheap enough to run first.

    A ValueError unless there are 2 samples, both regions have a box, and
    eps leaves an inner ball and a stencil window wide enough to draw;
    returns the window's lower edge.  The box of B_hi keeps at most the
    share |B_1| (1 - (lo/hi)^Q) / vol(box(B_1)) of its draws in the window
    [lo, hi), and the stencil sampler makes at least _MAX_ROUNDS batches of
    _BALL_BATCH draws before it gives up; a window expected to keep fewer
    than 100 _FD_CHECKS rows of those is too thin.
    """
    if n_samples < 2:
        raise ValueError(
            f"annihilation needs at least 2 samples (one per region), got {n_samples}"
        )
    group = cfg.group()
    for hi in (1.0, eps):
        gauge_box_halfwidths(group, hi)
    fd_lo = max(_FD_RHO_MIN, eps + _FD_SPLICE_GAP)
    if not (eps > 2.0 * SPLICE_EXCLUSION and fd_lo < _FD_RHO_MAX):
        raise ValueError(
            f"splice radius {eps} is out of the annihilation check's reach: it needs"
            f" eps > {2.0 * SPLICE_EXCLUSION}, as it excludes the shell |rho - eps| <"
            f" {SPLICE_EXCLUSION}, and a finite-difference window {fd_lo} < rho < {_FD_RHO_MAX}"
        )
    share = (
        _exact_ball_volume(group, 1.0)
        * (1.0 - (fd_lo / _FD_RHO_MAX) ** group.homogeneous_dimension)
        / float(np.prod(2.0 * gauge_box_halfwidths(group, 1.0)))
    )
    expected = share * _MAX_ROUNDS * _BALL_BATCH
    if expected < 100 * _FD_CHECKS:
        raise ValueError(
            f"splice radius {eps}: the stencil window {fd_lo} <= rho < {_FD_RHO_MAX} is too"
            f" thin to sample: {_MAX_ROUNDS * _BALL_BATCH} box draws are expected to keep"
            f" {expected:.3g} rows there, and the check asks for {100 * _FD_CHECKS}"
        )
    return fd_lo


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
    samples cover the annulus eps <= rho < 1, half the inner ball (whose
    bounding box scales with eps, so both regimes are exercised at any
    splice radius).  Closed forms are cross-checked against the LAPACK
    eigenvalues of the matrix on a subsample, and against finite differences of
    the field itself at _FD_CHECKS points drawn on their own substream from
    the stencil annulus above the splice, max(_FD_RHO_MIN, eps +
    _FD_SPLICE_GAP) <= rho < _FD_RHO_MAX.

    Samples within SPLICE_EXCLUSION of the splice are excluded, so eps must
    exceed 2 SPLICE_EXCLUSION to leave an inner ball worth sampling, and it
    must leave a stencil annulus above it wide enough to draw (else
    ValueError, from `_annihilation_reach`).  Should the stencil draw still
    fail, its RuntimeError names the annulus and eps.
    """
    fd_lo = _annihilation_reach(cfg, eps, n_samples)
    group = cfg.group()
    e = cfg.ellipticity()
    profile = counterexample_profile(cfg, eps)
    half = n_samples // 2
    regions = [
        (_box_draw(group, hi), lo, hi, k)
        for lo, hi, k in ((eps, 1.0, half), (0.0, eps, n_samples - half))
    ]
    scale = eps ** (cfg.alpha - 2.0)
    rng = substream(seed, "annihilation", repr(float(eps)))

    excluded = {"axis": 0, "shell": 0}

    def keep_within(lo: float, hi: float) -> Callable[[np.ndarray], np.ndarray]:
        def keep(pts: np.ndarray) -> np.ndarray:
            rho, h2 = _gauge(group, pts)
            inside = (rho >= lo) & (rho < hi)
            axis = h2 < AXIS_EXCLUSION**2
            shell = np.abs(rho - eps) < SPLICE_EXCLUSION
            excluded["axis"] += int(np.count_nonzero(inside & axis))
            excluded["shell"] += int(np.count_nonzero(inside & shell & ~axis))
            return inside & ~axis & ~shell

        return keep

    pts = np.vstack(
        [_rejection_sample(draw, keep_within(lo, hi), k, rng, 256) for draw, lo, hi, k in regions]
    )

    rho, h2, g = _gauge_parts(group, pts)
    inner = rho < eps
    eigs = _radial_eigenvalues(cfg.d, profile, rho, g)
    mplus = pucci_plus_of_eigenvalues(eigs, e)
    rhs = counterexample_rhs_field(cfg, eps).of_gauge(rho, h2, g)
    residual = np.abs(mplus - rhs) / scale

    worst = int(np.argmax(residual))
    outer_res = float(np.max(residual[~inner]))
    inner_res = float(np.max(residual[inner]))

    # Route cross-check: full matrix + LAPACK eigensolver on a subsample.
    sub = rng.choice(len(pts), size=min(32, len(pts)), replace=False)
    via_matrix = pucci_plus(radial_hessian(group, profile, pts[sub]).matrix, e)
    matrix_dev = float(np.max(np.abs(via_matrix - mplus[sub]) / scale, initial=0.0))

    fd_rng = substream(seed, "annihilation-fd", repr(float(eps)))
    fd_pts = _stencil_points(group, fd_lo, _FD_CHECKS, fd_rng, f"splice radius {eps}")
    fd_excess = float(np.max(_stencil_error(group, (profile,), fd_pts)[0] / _FD_RTOL))

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
    pass, with ``n_inside`` of its samples in the ball, of which the share
    ``rejected_fraction`` was unevaluable; ``f_mass_exact`` is
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
    rejected_fraction: float
    f_norm: float
    f_norm_stderr: float
    hess_mass_inner: float
    hess_mass_outer: float
    u_sup: float


@dataclass(frozen=True)
class SweepReport:
    """The window, q*, the sweep's rows, one fit per q and its annihilation checks in eps order.

    Each fit carries its numbers, ``worst_f_pull`` (the row ``f_pull`` of
    largest magnitude) and ``passed``; the report's ``passed``, a property
    and so no report key, needs every fit and every check to pass.
    """

    lam: float
    Lam: float
    critical_q: float
    rows: list[SweepRow]
    fits: list[dict]
    annihilation: list[AnnihilationReport]

    @property
    def passed(self) -> bool:
        return all(fit["passed"] for fit in self.fits) and all(a.passed for a in self.annihilation)


def _sweep_radius(cfg: CounterexampleConfig, quad: QuadratureSpec, eps: float) -> list[SweepRow]:
    """The rows of one splice radius, one per exponent, from one `lq_norm` pass."""
    fs = lq_norm(counterexample_rhs_field(cfg, eps), cfg.group(), eps, cfg.q_list, quad)
    return [_sweep_row(cfg, eps, q, f) for q, f in zip(cfg.q_list, fs)]


def _is_critical(beta: float) -> bool:
    """Whether the predicted exponent (alpha - 2) q + Q vanishes: q is the critical one."""
    return abs(beta) < 1e-9


def _sweep_row(cfg: CounterexampleConfig, eps: float, q: float, f: LqEstimate) -> SweepRow:
    group = cfg.group()
    big_q = float(cfg.homogeneous_dim)
    alpha = cfg.alpha
    beta = (alpha - 2.0) * q + big_q

    # Exact moment of eps^((alpha-2)q) |D rho|^(2q) over B_eps.
    moment = _gauge_moment(group, q)
    inner_moment = eps ** ((alpha - 2.0) * q) * eps**big_q * moment
    f_exact = cfg.rhs_amplitude**q * inner_moment
    # The inner Hessian constant 6a equals the outer 3 alpha, bit for bit.
    hess_scale = (3.0 * alpha) ** q
    hess_inner = hess_scale * inner_moment
    radial_integral = (
        math.log(1.0 / eps) if _is_critical(beta) else (1.0 - eps**beta) / beta
    )
    hess_outer = hess_scale * big_q * moment * radial_integral

    return SweepRow(
        eps=eps,
        q=q,
        predicted_exponent=beta,
        f_mass=f.mass,
        f_mass_stderr=f.mass_stderr,
        f_mass_exact=f_exact,
        f_pull=_pull(f.mass, f.mass_stderr, f_exact),
        n_inside=f.n_inside,
        rejected_fraction=f.rejected_fraction,
        f_norm=f.norm,
        f_norm_stderr=f.norm_stderr,
        hess_mass_inner=hess_inner,
        hess_mass_outer=hess_outer,
        # The profile decreases in rho, so its sup is psi(0).
        u_sup=1.0 - (1.0 - cfg.inner_coefficient) * eps**alpha,
    )


def _linear_fit(x: np.ndarray, y: np.ndarray, sd: np.ndarray) -> tuple[float, float, float, float]:
    """Least squares weighted by 1/sd^2: slope, its standard error, intercept and R^2.

    A ValueError where an sd^2 or the weighted spread of y is 0 (underflow).
    """
    var = np.square(sd)
    if not np.all(var > 0.0):
        raise ValueError("a fitted value's standard error squares to 0, so it has no weight")
    w = 1.0 / var
    xm, ym = np.average(x, weights=w), np.average(y, weights=w)
    sxx = float(np.sum(w * (x - xm) ** 2))
    slope = float(np.sum(w * (x - xm) * (y - ym))) / sxx
    intercept = float(ym - slope * xm)
    total = float(np.sum(w * (y - ym) ** 2))
    if not total > 0.0:
        raise ValueError("the weighted spread of the fitted values is 0, so the fit has no R^2")
    r2 = 1.0 - float(np.sum(w * (y - slope * x - intercept) ** 2)) / total
    return slope, 1.0 / math.sqrt(sxx), intercept, r2


def sweep_scaling(
    cfg: CounterexampleConfig,
    quad: QuadratureSpec,
    workers: int = 1,
    annihilation_samples: int = 0,
) -> SweepReport:
    """Measure the (eps, q) grid, fit the scaling laws, and check annihilation.

    Each radius is one work unit, a box pass for all exponents; with
    `annihilation_samples` > 0 each radius's `verify_pucci_annihilation`
    at seed quad.seed is one more unit of the same pool, submitted after
    the box passes: the checks are short and mostly Python, and two of them
    at once contend for the GIL.  For any count but 0, which is "off", the
    check's rules (`_annihilation_reach`) run on every radius before any
    unit is built, so a count below 2 or a radius they reject runs no unit
    at all.  Every unit draws from its own substream and results are
    collected in eps order, so the report is bit-identical for any worker
    count, and the error raised is the first failing unit's in submission
    order.  Units run in a copy of the caller's context, which holds
    numpy's error state.

    Noncritical exponents fit log(source mass) against log(eps), weighted
    by the masses' relative standard errors, and pass when the slope is
    within MAX_PULL of its standard errors of the predicted (alpha-2) q + Q.
    The critical exponent checks that the source norm stays level while the
    outer Hessian mass grows affinely in log(1/eps).  Either verdict also
    fails when a source mass is more than MAX_PULL standard errors from exact.
    """
    if len(cfg.eps_list) < 4:
        raise ValueError("scaling fits need at least four splice radii")
    lo, hi = min(cfg.eps_list), max(cfg.eps_list)
    if hi / lo < 4.0:
        raise ValueError("splice radii must span at least two dyadic decades")
    if annihilation_samples != 0:
        for eps in cfg.eps_list:
            _annihilation_reach(cfg, eps, annihilation_samples)

    units = [functools.partial(_sweep_radius, cfg, quad, eps) for eps in cfg.eps_list]
    units += [
        functools.partial(verify_pucci_annihilation, cfg, eps, annihilation_samples, quad.seed)
        for eps in cfg.eps_list
        if annihilation_samples > 0
    ]
    contexts = [contextvars.copy_context() for _ in units]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(contextvars.Context.run, contexts, units))
    n_radii = len(cfg.eps_list)
    rows = [row for radius_rows in results[:n_radii] for row in radius_rows]
    annihilation = results[n_radii:]

    fits: list[dict] = []
    eps_arr = np.array(cfg.eps_list)
    for j, q in enumerate(cfg.q_list):
        sub = [rows[i * len(cfg.q_list) + j] for i in range(len(cfg.eps_list))]
        beta = sub[0].predicted_exponent
        if min(row.f_mass for row in sub) <= 0.0:
            raise ValueError(f"a source mass at q={q:g} underflows to 0: no scaling law to fit")
        if _is_critical(beta):
            norms = np.array([row.f_norm for row in sub])
            ratio = float(np.max(norms) / np.min(norms))
            outer = np.array([row.hess_mass_outer for row in sub])
            slope, _, intercept, r2 = _linear_fit(np.log(1 / eps_arr), outer, np.ones_like(outer))
            passed = ratio <= NORM_RATIO_MAX and r2 >= R2_MIN
            fit = {
                "q": q,
                "kind": "critical",
                "f_norm_ratio": ratio,
                "hess_outer_slope": slope,
                "hess_outer_intercept": intercept,
                "r2": r2,
            }
        else:
            mass = np.array([row.f_mass for row in sub])
            slope, slope_se, intercept, r2 = _linear_fit(
                np.log(eps_arr), np.log(mass), np.array([row.f_mass_stderr for row in sub]) / mass
            )
            slope_pull = _pull(slope, slope_se, beta)
            passed = abs(slope_pull) <= MAX_PULL
            fit = {
                "q": q,
                "kind": "power",
                "fitted_slope": slope,
                "slope_stderr": slope_se,
                "slope_pull": slope_pull,
                "predicted_slope": beta,
                "intercept": intercept,
                "r2": r2,
            }
        fit["worst_f_pull"] = max((row.f_pull for row in sub), key=abs)
        fit["passed"] = passed and abs(fit["worst_f_pull"]) <= MAX_PULL
        fits.append(fit)

    e = cfg.ellipticity()
    return SweepReport(e.lam, e.Lam, cfg.critical_q(), rows, fits, annihilation)


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

    The upper side also allows 4 ulp of s / lam, s = max |f| + m c4 Lam +
    |gop(0)|: the bound divides a sum of size s that cancels by lam, and at
    small lam that rounding outgrows tol.
    """
    if not 0.0 <= c4 < math.inf:
        raise ValueError(f"semiconvexity constant must be finite and nonnegative, got {c4}")
    if count < 1:
        raise ValueError(f"the bound needs at least one point, got count={count}")
    m = group.m
    rng = substream(seed, "pointwise-bound")
    pts = _rejection_sample(sampler, u.in_domain, count, rng)

    g0 = abs(float(gop(np.zeros((m, m)))))
    mats = horizontal_hessian_sym(group, u, pts)
    fx = np.asarray(f.evaluate(pts), dtype=float)
    semiconvex_ok = not np.any(sym_eigenvalues(mats)[:, 0] < -c4 - tol)
    supersolution_ok = not np.any(np.asarray(gop(mats)) > fx + tol)
    tr = np.trace(mats, axis1=-2, axis2=-1)
    low = tr + c4 * m
    # f + m c4 Lam first: it cancels in the tight case, where Lam - lam would lose lam.
    up = (fx + m * c4 * e.Lam - m * c4 * e.lam + g0) / e.lam - tr
    sur = tr + 2.0 * c4 * m - np.max(np.abs(mats), axis=(-2, -1))
    up_tol = tol + 4.0 * math.ulp(float(np.max(np.abs(fx))) + m * c4 * e.Lam + g0) / e.lam
    lower_margin, upper_margin, surrogate_margin = (float(v.min()) for v in (low, up, sur))
    worst = int(np.argmin(np.minimum(np.minimum(low, up), sur)))
    witness = {"point": pts[worst].copy(), "trace": float(tr[worst])}

    passed = (
        semiconvex_ok
        and supersolution_ok
        and lower_margin >= -tol
        and upper_margin >= -up_tol
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


def tight_pointwise_bound(
    group: GroupDescriptor, e: Ellipticity, count: int, seed: int
) -> PointwiseBoundReport:
    """`pointwise_bound_check` with both bounds tight: u = -|x_H|^2/2, c4 = 1, f = -Lam m."""
    u, f = horizontal_quadratic(group, -1.0), constant_field(-e.Lam * group.m, name="tight-rhs")
    return pointwise_bound_check(
        group, lambda mat: pucci_minus(mat, e), u, f, 1.0, e, _box_draw(group, 1.0), count, seed
    )
