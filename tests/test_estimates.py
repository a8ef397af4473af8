"""Quadrature, the spliced family, and the verification harnesses."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from carnotx import (
    CounterexampleConfig,
    Ellipticity,
    IllPosedIntegrandError,
    McEstimate,
    QuadratureSpec,
    ScalarField,
    alpha_for_critical_q,
    ball_volume,
    constant_field,
    counterexample_profile,
    counterexample_rhs_field,
    field_from_profile,
    gauge_ball_sampler,
    heisenberg,
    homogeneous_norm,
    horizontal_quadratic,
    lq_norm,
    pointwise_bound_check,
    pucci_minus,
    pucci_plus_of_eigenvalues,
    q_star,
    radial_hessian_eigenvalues,
    sweep_scaling,
    verify_pucci_annihilation,
)
from carnotx.estimates import (
    _CHUNK,
    _box_chunks,
    _gauge_moment,
    _sweep_radius,
    gauge_box_halfwidths,
)
from carnotx.group import _gauge_parts
from carnotx.report import dumps
from carnotx.rng import substream

H1 = heisenberg(1)

CFG = CounterexampleConfig(
    d=1,
    alpha=0.5,
    eps_list=(2.0**-3, 2.0**-4, 2.0**-5, 2.0**-6),
    q_list=(2.0, 8.0 / 3.0),
)


class TestCriticalExponents:
    def test_q_star_frozen(self):
        assert q_star(0.5, 4) == pytest.approx(8.0 / 3.0, rel=1e-15)
        assert q_star(0.3, 6) == pytest.approx(6.0 / 1.7, rel=1e-15)

    def test_alpha_round_trip(self):
        a = alpha_for_critical_q(8.0 / 3.0, 4)
        assert a == pytest.approx(0.5, rel=1e-14)
        assert q_star(a, 4) == pytest.approx(8.0 / 3.0, rel=1e-14)

    def test_unreachable_exponents_explained(self):
        with pytest.raises(ValueError, match="Q/2"):
            alpha_for_critical_q(2.0, 4)
        with pytest.raises(ValueError, match="q < Q"):
            alpha_for_critical_q(4.0, 4)


class TestConfig:
    def test_ellipticity_window(self):
        e = CFG.ellipticity()
        assert e.lam == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert e.Lam == pytest.approx(2.0, rel=1e-15)

    def test_rhs_amplitude_frozen(self):
        # 2 a Q / (Q - 1) with a = alpha = 1/2 and Q = 4.
        assert CFG.rhs_amplitude == pytest.approx(4.0 / 3.0, rel=1e-15)
        half = CounterexampleConfig(
            d=1, alpha=0.5, eps_list=CFG.eps_list, q_list=CFG.q_list, glue_mode="c1-variant"
        )
        assert half.rhs_amplitude == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_validation(self):
        good = dict(d=1, alpha=0.5, eps_list=(0.125,), q_list=(2.0,))
        CounterexampleConfig(**good)
        for bad in (
            dict(good, alpha=0.0),
            dict(good, alpha=1.0),
            dict(good, d=0),
            dict(good, eps_list=(1.5,)),
            dict(good, q_list=(1.0,)),
            dict(good, q_list=(4.0,)),
            dict(good, glue_mode="smooth"),
            dict(good, eps_list=(0.125, 0.25, 0.125)),
            dict(good, q_list=(2.0, 2.0)),
        ):
            with pytest.raises(ValueError):
                CounterexampleConfig(**bad)


class TestProfile:
    def test_value_continuity_at_splice(self):
        for mode in ("paper-literal", "c1-variant"):
            cfg = CounterexampleConfig(
                d=1, alpha=0.5, eps_list=CFG.eps_list, q_list=CFG.q_list, glue_mode=mode
            )
            for eps in cfg.eps_list:
                profile = counterexample_profile(cfg, eps)
                inner = float(profile.psi(eps * (1.0 - 1e-13)))
                outer = float(profile.psi(eps))
                assert inner == pytest.approx(outer, abs=1e-12)

    def test_derivative_kink_ratio(self):
        # Literal glue: inner slope is exactly twice the outer slope at the
        # splice; the C^1 variant removes the kink.
        eps = 0.125
        lit = counterexample_profile(CFG, eps)
        ratio = float(lit.psi_prime(eps * (1 - 1e-13))) / float(lit.psi_prime(eps))
        assert ratio == pytest.approx(2.0, rel=1e-10)
        c1 = counterexample_profile(
            CounterexampleConfig(
                d=1, alpha=0.5, eps_list=CFG.eps_list, q_list=CFG.q_list,
                glue_mode="c1-variant",
            ),
            eps,
        )
        ratio = float(c1.psi_prime(eps * (1 - 1e-13))) / float(c1.psi_prime(eps))
        assert ratio == pytest.approx(1.0, rel=1e-10)

    def test_profile_bounded_by_one(self):
        r = np.linspace(0.0, 1.0, 4097)
        for eps in CFG.eps_list:
            vals = counterexample_profile(CFG, eps).psi(r)
            assert float(np.max(vals)) <= 1.0
            assert float(np.min(vals)) >= 0.0 - 1e-12

    def test_field_and_smooth_domain(self):
        eps = 0.125
        u = field_from_profile(H1, counterexample_profile(CFG, eps))
        # off the axis, on the axis, and exactly on the splice shell rho = eps
        x = np.array([[0.3, 0.2, 0.1], [0.0, 0.0, 0.5], [eps, 0.0, 0.0]])
        vals = u.evaluate(x)
        rho0 = float(homogeneous_norm(H1, x[0]))
        assert vals[0] == pytest.approx(1.0 - math.sqrt(rho0))
        assert float(homogeneous_norm(H1, x[2])) == eps
        assert u.in_domain(x).tolist() == [True, False, False]


class TestRhs:
    def test_frozen_inner_value(self):
        f = counterexample_rhs_field(CFG, 0.125)
        got = float(f.evaluate(np.array([0.01, 0.02, 0.001])))
        assert got == pytest.approx(-13.492384683385085, rel=1e-14)

    def test_zero_outside(self):
        f = counterexample_rhs_field(CFG, 0.125)
        assert float(f.evaluate(np.array([0.5, 0.5, 0.0]))) == 0.0


class TestAnnihilation:
    def test_passes_both_glue_modes(self):
        for mode in ("paper-literal", "c1-variant"):
            cfg = CounterexampleConfig(
                d=1, alpha=0.5, eps_list=CFG.eps_list, q_list=CFG.q_list, glue_mode=mode
            )
            rep = verify_pucci_annihilation(cfg, 0.125, n_samples=3000, seed=11)
            assert rep.passed, rep
            assert rep.max_outer_residual <= 1e-12
            assert rep.max_inner_residual <= 1e-12
            assert rep.n_inner > 0 and rep.n_outer > 0

    def test_source_is_the_rhs_field(self, monkeypatch):
        # The identity is checked against `counterexample_rhs_field` itself,
        # so a shifted source shows up as a unit residual in both regions.
        import carnotx.estimates as estimates

        eps = 0.125
        real = estimates.counterexample_rhs_field
        scale = eps ** (CFG.alpha - 2.0)

        def shifted(cfg, r):
            f = real(cfg, r)
            return ScalarField(name=f.name, evaluate=lambda x: f.evaluate(x) + scale)

        monkeypatch.setattr(estimates, "counterexample_rhs_field", shifted)
        rep = verify_pucci_annihilation(CFG, eps, n_samples=400, seed=11)
        assert not rep.passed
        assert rep.max_outer_residual == pytest.approx(1.0, rel=1e-9)
        assert rep.max_inner_residual == pytest.approx(1.0, rel=1e-9)

    def test_wrong_ellipticity_breaks_identity(self):
        # The same Hessians under a detuned window leave a visible residual,
        # so the check has teeth.
        cfg = CFG
        eps = 0.125
        profile = counterexample_profile(cfg, eps)
        rng = np.random.default_rng(5)
        pts = rng.uniform(-0.6, 0.6, (500, 3))
        rho = homogeneous_norm(H1, pts)
        keep = (rho > eps + 1e-3) & (rho < 1.0) & (np.hypot(pts[:, 0], pts[:, 1]) > 1e-3)
        eigs = radial_hessian_eigenvalues(H1, profile, pts[keep])
        e = cfg.ellipticity()
        detuned = Ellipticity(lam=e.lam, Lam=1.1 * e.Lam)
        residual = np.abs(pucci_plus_of_eigenvalues(eigs, detuned))
        assert float(np.max(residual)) > 1e-3


class TestQuadrature:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(n_samples=999, seed=0)
        for r in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                ball_volume(H1, r, QuadratureSpec(n_samples=2000, seed=0))

    def test_ball_volume_frozen_oracle(self):
        # |B_1| = pi^2/2 on H^1 (slice areas pi sqrt(1-t^2) integrated);
        # MC must land within 4 standard errors.
        est = ball_volume(H1, 1.0, QuadratureSpec(n_samples=200000, seed=9))
        assert abs(est.value - math.pi**2 / 2.0) <= 4.0 * est.stderr

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("q", [0.0, 1.0, 2.0, 8.0 / 3.0, 3.0])
    def test_gauge_moment_matches_direct_integral(self, d, q):
        # The moment of |D rho|^(2q) = (s^2 / rho^2)^q over the unit ball,
        # integrated directly in s = |x_H| and t: the sphere S^(2d-1) of
        # radius s has area omega s^(2d-1), and the ball is s^4 + t^2 < 1.
        from scipy import integrate

        omega = 2.0 * math.pi**d / math.gamma(d)

        def integrand(s, t):
            return s ** (2 * d - 1) * (s * s / math.sqrt(s**4 + t * t)) ** q if s > 0 else 0.0

        half, _ = integrate.dblquad(
            integrand, 0.0, 1.0, 0.0, lambda t: (1.0 - t * t) ** 0.25,
            epsabs=0.0, epsrel=1e-11,
        )
        got = _gauge_moment(heisenberg(d), q)
        assert got == pytest.approx(2.0 * omega * half, rel=1e-8)

    def test_lq_norm_of_constant(self):
        u = constant_field(2.0)
        quad = QuadratureSpec(n_samples=100000, seed=7)
        (est,) = lq_norm(u, H1, 1.0, (2.0,), quad)
        vol = ball_volume(H1, 1.0, quad)
        want = 2.0 * math.sqrt(vol.value)
        # independent streams: compare within combined error bars
        spread = 2.0 * (vol.stderr / math.sqrt(vol.value)) + 4.0 * est.norm_stderr
        assert abs(est.norm - want) <= spread
        assert est.rejected_fraction == 0.0

    def test_lq_norm_rejects_bad_integrand(self):
        def half_nan(x):
            out = np.ones(x.shape[:-1])
            out[x[..., 0] > 0] = np.nan
            return out

        u = ScalarField(name="broken", evaluate=half_nan)
        with pytest.raises(IllPosedIntegrandError):
            lq_norm(u, H1, 1.0, (2.0,), QuadratureSpec(n_samples=2000, seed=1))

    @pytest.mark.parametrize("q", [2.0, 1.5])
    def test_lq_norm_overflow_raises(self, q):
        # 1e200**2 overflows |u|^q itself; 1e200**1.5 = 1e300 is finite but
        # its squared deviations are not.  Either way no inf mass comes back.
        u = constant_field(1e200)
        want = f"|{u.name}|^{q} over B_1.0 overflows a float"
        with pytest.raises(OverflowError, match=re.escape(want)):
            lq_norm(u, H1, 1.0, (q,), QuadratureSpec(n_samples=2000, seed=1))

    def test_lq_norm_exponent_validation(self):
        for qs in [(1.0,), (2.0, 1.0), ()]:
            with pytest.raises(ValueError):
                lq_norm(constant_field(1.0), H1, 1.0, qs, QuadratureSpec(2000, 1))

    def test_gauge_ball_sampler_respects_constraints(self):
        sampler = gauge_ball_sampler(
            H1, rho_max=1.0, rho_min=0.3, min_horizontal=0.1,
            exclude_shells=((0.5, 0.05),),
        )
        pts = sampler(500, np.random.default_rng(2))
        rho = homogeneous_norm(H1, pts)
        assert np.all(rho < 1.0) and np.all(rho >= 0.3)
        assert np.all(np.hypot(pts[:, 0], pts[:, 1]) >= 0.1)
        assert np.all(np.abs(rho - 0.5) >= 0.05)


class TestSweep:
    def test_determinism_across_workers(self):
        quad = QuadratureSpec(n_samples=2000, seed=21)
        a = dumps(sweep_scaling(CFG, quad, workers=1))
        b = dumps(sweep_scaling(CFG, quad, workers=3))
        assert a == b

    def test_verdict_structure(self):
        quad = QuadratureSpec(n_samples=20000, seed=21)
        rep = sweep_scaling(CFG, quad)
        assert len(rep.rows) == len(CFG.eps_list) * len(CFG.q_list)
        kinds = {v["q"]: v["kind"] for v in rep.verdicts}
        assert kinds[2.0] == "power"
        assert kinds[8.0 / 3.0] == "critical"
        for row in rep.rows:
            assert row.u_sup <= 1.0
            assert row.f_mass > 0

    def test_requires_enough_radii(self):
        quad = QuadratureSpec(n_samples=2000, seed=1)
        with pytest.raises(ValueError):
            sweep_scaling(
                CounterexampleConfig(d=1, alpha=0.5, eps_list=(0.125, 0.25), q_list=(2.0,)),
                quad,
            )

    def test_predicted_exponents_frozen(self):
        quad = QuadratureSpec(n_samples=2000, seed=2)
        rep = sweep_scaling(CFG, quad)
        by_q = {row.q: row.predicted_exponent for row in rep.rows}
        assert by_q[2.0] == pytest.approx(1.0, abs=1e-12)
        assert abs(by_q[8.0 / 3.0]) <= 1e-9


class TestPointwiseBound:
    def test_tight_configuration_margins_vanish(self):
        e = Ellipticity(lam=1.0, Lam=2.0)
        u = horizontal_quadratic(H1, -1.0)
        f = constant_field(-e.Lam * H1.m)

        def sampler(count, rng):
            return rng.uniform(-1, 1, size=(count, 3))

        rep = pointwise_bound_check(
            H1, lambda mat: pucci_minus(mat, e), u, f,
            c4=1.0, e=e, sampler=sampler, count=50, seed=3,
        )
        assert rep.passed
        assert abs(rep.lower_margin) <= 1e-9
        assert abs(rep.upper_margin) <= 1e-9

    def test_insufficient_constant_is_flagged(self):
        e = Ellipticity(lam=1.0, Lam=2.0)
        u = horizontal_quadratic(H1, -1.0)
        f = constant_field(-e.Lam * H1.m)

        def sampler(count, rng):
            return rng.uniform(-1, 1, size=(count, 3))

        rep = pointwise_bound_check(
            H1, lambda mat: pucci_minus(mat, e), u, f,
            c4=0.5, e=e, sampler=sampler, count=20, seed=3,
        )
        assert not rep.passed
        assert not rep.semiconvex_ok

    def test_rejects_negative_constant(self):
        e = Ellipticity(lam=1.0, Lam=2.0)
        for c4 in (-1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                pointwise_bound_check(
                    H1, lambda mat: pucci_minus(mat, e),
                    horizontal_quadratic(H1, 1.0), constant_field(10.0),
                    c4=c4, e=e,
                    sampler=lambda c, r: r.uniform(-1, 1, size=(c, 3)),
                    count=8, seed=1,
                )


# --- chunked box sampling against the whole-array formulas --------------------

H2 = heisenberg(2)
STRADDLE = 2 * _CHUNK + 77  # ends 77 points into a third chunk


def _whole_box(group, r, count, rng):
    return rng.uniform(-1.0, 1.0, (count, group.n)) * gauge_box_halfwidths(group, r)


def _whole_gauge(group, pts):
    """rho and |D rho|^2 by a row-wise np.sum, the reference for `_gauge_parts`."""
    d = group.heisenberg_d
    h2 = np.sum(pts[..., : 2 * d] ** 2, axis=-1)
    rho = (h2**2 + pts[..., -1] ** 2) ** 0.25
    return rho, np.divide(h2, rho**2, out=np.zeros_like(h2), where=rho > 0.0)


def _mean_and_se(vbox, w):
    """Whole-array mass and standard error: numpy's mean and std(ddof=1)."""
    return (
        vbox * float(np.mean(w)),
        vbox * float(np.std(w, ddof=1)) / math.sqrt(len(w)),
    )


def _slab_field():
    base = field_from_profile(H1, counterexample_profile(CFG, 0.25))

    def evaluate(x):
        # Unevaluable on a thin slab, so the rejection count is exercised.
        return np.where(x[..., 0] > 0.88, np.nan, base.evaluate(x))

    return ScalarField(name="slab", evaluate=evaluate)


class TestChunkedSampling:
    @pytest.mark.parametrize(
        "count", [1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5]
    )
    def test_chunks_concatenate_to_one_draw(self, count):
        want = _whole_box(H2, 0.7, count, substream(3, "box"))
        starts, parts = [], []
        for start, pts in _box_chunks(H2, 0.7, count, substream(3, "box")):
            starts.append(start)
            parts.append(pts.copy())
        assert starts == list(range(0, count, _CHUNK))
        got = np.concatenate(parts)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("group", [H1, H2])
    def test_ball_volume_matches_whole_array(self, group):
        # The volume is the q = 0 mass of the constant 1: the mean of the
        # indicator, with the sample deviation as its error.
        r = 0.8
        pts = _whole_box(group, r, STRADDLE, substream(4, "box-mass", "one", repr(r)))
        w = (_whole_gauge(group, pts)[0] < r).astype(float)
        value, stderr = _mean_and_se(float(np.prod(2.0 * gauge_box_halfwidths(group, r))), w)
        got = ball_volume(group, r, QuadratureSpec(n_samples=STRADDLE, seed=4))
        assert got.value == pytest.approx(value, rel=1e-12, abs=0.0)
        assert got.stderr == pytest.approx(stderr, rel=1e-12, abs=0.0)

    def test_lq_norm_matches_whole_array(self):
        # Chunk-wise moments merged by Chan's update against numpy's
        # whole-array mean and std(ddof=1), for every exponent of one pass.
        u = _slab_field()
        r, qs, seed = 0.9, (2.0, 8.0 / 3.0), 12
        pts = _whole_box(H1, r, STRADDLE, substream(seed, "box-mass", u.name, repr(r)))
        inside = _whole_gauge(H1, pts)[0] < r
        vals = u.evaluate(pts[inside])
        bad = ~np.isfinite(vals)
        assert 0 < int(np.sum(bad))
        vbox = float(np.prod(2.0 * gauge_box_halfwidths(H1, r)))
        got = lq_norm(u, H1, r, qs, QuadratureSpec(n_samples=STRADDLE, seed=seed))
        assert len(got) == len(qs)
        for q, est in zip(qs, got):
            w = np.zeros(STRADDLE)
            w[inside] = np.where(bad, 0.0, np.abs(vals) ** q)
            mass, mass_se = _mean_and_se(vbox, w)
            norm = mass ** (1.0 / q)
            assert est.mass == pytest.approx(mass, rel=1e-12, abs=0.0)
            assert est.mass_stderr == pytest.approx(mass_se, rel=1e-12, abs=0.0)
            assert est.norm == pytest.approx(norm, rel=1e-12, abs=0.0)
            assert est.norm_stderr == pytest.approx(
                norm * mass_se / (q * mass), rel=1e-12, abs=0.0
            )
            assert est.rejected_fraction == float(np.sum(bad)) / int(np.sum(inside))
            assert est.n_inside == int(np.sum(inside))

    def test_exponents_share_one_pass_bit_for_bit(self):
        # q is not part of the substream key, so a multi-exponent call gives
        # every exponent exactly what a call with that exponent alone gives.
        u = _slab_field()
        qs = (2.0, 8.0 / 3.0, 3.0)
        quad = QuadratureSpec(n_samples=STRADDLE, seed=5)
        together = lq_norm(u, H1, 0.9, qs, quad)
        alone = tuple(lq_norm(u, H1, 0.9, (q,), quad)[0] for q in qs)
        assert together == alone

    @pytest.mark.parametrize("i_q", [0, 1])
    def test_sweep_row_is_one_lq_norm_and_closed_forms(self, i_q):
        i_eps, seed = 1, 21
        eps, q = CFG.eps_list[i_eps], CFG.q_list[i_q]
        quad = QuadratureSpec(n_samples=STRADDLE, seed=seed)
        row = _sweep_radius(CFG, quad, eps)[i_q]
        f = lq_norm(counterexample_rhs_field(CFG, eps), H1, eps, CFG.q_list, quad)[i_q]
        assert (row.eps, row.q) == (eps, q)
        assert (row.f_mass, row.f_mass_stderr, row.n_inside) == (
            f.mass, f.mass_stderr, f.n_inside
        )
        # Exact masses: Q = 4, a = alpha, and beta = 0 at the critical q = 8/3.
        moment = _gauge_moment(H1, q)
        inner = eps ** ((CFG.alpha - 2.0) * q) * eps**4.0 * moment
        beta = row.predicted_exponent
        radial = math.log(1.0 / eps) if i_q == 1 else (1.0 - eps**beta) / beta
        assert row.f_mass_exact == CFG.rhs_amplitude**q * inner
        assert row.f_pull == (row.f_mass - row.f_mass_exact) / row.f_mass_stderr
        assert row.hess_mass_inner == (6.0 * CFG.alpha) ** q * inner
        assert row.hess_mass_outer == (3.0 * CFG.alpha) ** q * 4.0 * moment * radial

    @pytest.mark.parametrize("glue", ["paper-literal", "c1-variant"])
    def test_u_sup_is_the_profile_maximum(self, glue):
        # The closed form psi(0) against the maximum on a fine grid of [0, 1].
        grid = np.linspace(0.0, 1.0, 8193)
        for alpha in (0.1, 0.3, 0.5, 0.7, 0.9):
            cfg = CounterexampleConfig(
                d=1, alpha=alpha, eps_list=(2.0**-3, 2.0**-8, 0.6, 0.25),
                q_list=(2.0,), glue_mode=glue,
            )
            quad = QuadratureSpec(n_samples=1000, seed=1)
            for eps in cfg.eps_list:
                (row,) = _sweep_radius(cfg, quad, eps)
                want = float(np.max(counterexample_profile(cfg, eps).psi(grid)))
                assert row.u_sup == want

    def test_sweep_draws_one_box_pass_per_radius(self, monkeypatch):
        import carnotx.estimates as estimates

        drawn = {}
        real = estimates._sample_box

        def counting(hw, rng, out):
            drawn[float(hw[0])] = drawn.get(float(hw[0]), 0) + len(out)
            return real(hw, rng, out)

        monkeypatch.setattr(estimates, "_sample_box", counting)
        cfg = CounterexampleConfig(
            d=1, alpha=0.5, eps_list=CFG.eps_list, q_list=(2.0, 2.5, 8.0 / 3.0)
        )
        n = _CHUNK + 5
        rep = sweep_scaling(cfg, QuadratureSpec(n_samples=n, seed=3), workers=2)
        assert len(rep.rows) == 4 * 3
        assert drawn == {eps: n for eps in cfg.eps_list}


def _glue_cfg(d, glue):
    return CounterexampleConfig(
        d=d, alpha=0.5, eps_list=CFG.eps_list, q_list=(2.0, 8.0 / 3.0), glue_mode=glue
    )


def _reference_lq(u, group, r, qs, quad):
    """`lq_norm` rebuilt the way a boolean-gather integrator computes it.

    Every box point is drawn and gauged in one whole array, `u` is evaluated
    on the rows `pts[inside]`, and the per-chunk moments of those values
    merge in chunk order by the same Chan update.
    """
    n = quad.n_samples
    pts = _whole_box(group, r, n, substream(quad.seed, "box-mass", u.name, repr(r)))
    inside = _gauge_parts(group, pts)[0] < r
    vals = np.asarray(u.evaluate(pts[inside]), dtype=float)
    ends = np.cumsum([np.count_nonzero(inside[s : s + _CHUNK]) for s in range(0, n, _CHUNK)])
    mean, m2 = [0.0] * len(qs), [0.0] * len(qs)
    for start, lo, hi in zip(range(0, n, _CHUNK), np.r_[0, ends[:-1]], ends):
        k, v = min(_CHUNK, n - start), vals[lo:hi]
        bad = ~np.isfinite(v)
        for j, q in enumerate(qs):
            w = np.where(bad, 0.0, np.abs(v) ** q)
            m = float(np.sum(w)) / k
            ss = float(np.sum((w - m) ** 2)) + (k - len(v)) * m * m
            delta = m - mean[j]
            mean[j] += delta * k / (start + k)
            m2[j] += ss + delta * delta * start * k / (start + k)
    vbox = float(np.prod(2.0 * gauge_box_halfwidths(group, r)))
    out = []
    for q, m, s in zip(qs, mean, m2):
        mass, mass_se = vbox * m, vbox * math.sqrt(s / (n - 1)) / math.sqrt(n)
        norm = mass ** (1.0 / q)
        out.append((norm, norm * mass_se / (q * mass), mass, mass_se, len(vals)))
    return out


class TestGaugeReuse:
    @pytest.mark.parametrize("count", [_CHUNK - 1, STRADDLE])
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("glue", ["paper-literal", "c1-variant"])
    def test_rhs_lq_norm_equals_row_gather_reference(self, count, d, glue):
        # The integrator hands the rhs the compressed gauge; a reference that
        # gathers the inside rows and evaluates them gives the same bits.
        cfg = _glue_cfg(d, glue)
        quad = QuadratureSpec(n_samples=count, seed=31)
        for eps in (cfg.eps_list[0], cfg.eps_list[-1]):
            u = counterexample_rhs_field(cfg, eps)
            got = lq_norm(u, cfg.group(), eps, cfg.q_list, quad)
            want = _reference_lq(u, cfg.group(), eps, cfg.q_list, quad)
            for est, ref in zip(got, want):
                assert (est.norm, est.norm_stderr, est.mass, est.mass_stderr, est.n_inside) == ref
                assert est.rejected_fraction == 0.0

    @pytest.mark.parametrize("d", [1, 2])
    def test_of_gauge_is_evaluate_bit_for_bit(self, d, monkeypatch):
        import carnotx.estimates as estimates

        eps = 0.125
        group = heisenberg(d)
        n = group.n
        rng = np.random.default_rng(8)
        axis, vertical = np.zeros(n), np.zeros(n)
        axis[0], vertical[-1] = eps, eps * eps
        x = np.vstack(
            [np.zeros(n), axis, vertical, rng.uniform(-0.4, 0.4, (300, n)),
             rng.uniform(-0.05, 0.05, (300, n))]
        )
        assert _gauge_parts(group, x)[0][0] == 0.0
        assert np.all(_gauge_parts(group, x[1:3])[0] == eps)

        # ball_volume's constant 1 is built inside it; capture it on the way in.
        seen = []

        def capture(u, *args):
            seen.append(u)
            return [McEstimate(1.0, 0.0)], 0.0, 0

        monkeypatch.setattr(estimates, "_box_masses", capture)
        ball_volume(group, 1.0, QuadratureSpec(n_samples=1000, seed=1))
        fields = [seen[0]]
        for glue in ("paper-literal", "c1-variant"):
            cfg = _glue_cfg(d, glue)
            fields += [
                counterexample_rhs_field(cfg, eps),
                field_from_profile(group, counterexample_profile(cfg, eps)),
            ]
        for u in fields:
            assert u.of_gauge is not None
            for pts in (x, x[5]):
                want = np.asarray(u.of_gauge(*_gauge_parts(group, pts)), dtype=float)
                got = np.asarray(u.evaluate(pts), dtype=float)
                assert got.shape == want.shape == pts.shape[:-1]
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), u.name

    @pytest.fixture
    def gauged(self, monkeypatch):
        """Point counts of every `_gauge_parts` call from estimates or calculus."""
        import carnotx.calculus as calculus
        import carnotx.estimates as estimates

        seen = []

        def counting(group, x):
            seen.append(int(np.prod(np.shape(x)[:-1])))
            return _gauge_parts(group, x)

        monkeypatch.setattr(estimates, "_gauge_parts", counting)
        monkeypatch.setattr(calculus, "_gauge_parts", counting)
        return seen

    def test_sweep_radius_gauges_each_box_point_once(self, gauged):
        # The inside points are not gauged a second time by the rhs field.
        n = STRADDLE
        rows = _sweep_radius(CFG, QuadratureSpec(n_samples=n, seed=4), CFG.eps_list[0])
        assert 0 < rows[0].n_inside < n
        assert sum(gauged) == n

    def test_annihilation_gauges_its_sample_once(self, gauged):
        # The residual's rhs and closed-form eigenvalues share one gauge of
        # the final sample.
        rep = verify_pucci_annihilation(CFG, 0.125, n_samples=400, seed=11)
        assert rep.passed
        assert gauged.count(400) == 1


def _traced_peak(fn) -> int:
    """Peak bytes numpy and Python allocate while `fn` runs, above the start."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_monte_carlo_memory_per_sample():
    # The sweep's radius and the volume hold only a fixed chunk.
    n = 800_000
    quad = QuadratureSpec(n_samples=n, seed=2)
    assert _traced_peak(lambda: _sweep_radius(CFG, quad, CFG.eps_list[0])) / n < 24.0
    assert _traced_peak(lambda: ball_volume(H2, 1.0, quad)) / n < 8.0


def test_monte_carlo_memory_does_not_grow_with_samples():
    def peak(n):
        quad = QuadratureSpec(n_samples=n, seed=2)
        return _traced_peak(lambda: _sweep_radius(CFG, quad, CFG.eps_list[0]))

    assert peak(1_000_000) <= 1.25 * peak(100_000)
