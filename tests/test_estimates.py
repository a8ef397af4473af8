"""Quadrature, the spliced family, and the verification harnesses."""

import dataclasses
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
    ball_volume,
    constant_field,
    counterexample_profile,
    counterexample_rhs_field,
    field_from_profile,
    gauge_ball_sampler,
    heisenberg,
    horizontal_hessian_sym,
    horizontal_quadratic,
    integrate_xline,
    lq_norm,
    pointwise_bound_check,
    pucci_minus,
    pucci_plus_of_eigenvalues,
    sweep_scaling,
    sym_eigenvalues,
    verify_pucci_annihilation,
)
from carnotx.calculus import _gauge_field, _radial_eigenvalues, radial_hessian
from carnotx.cli import run
from carnotx.estimates import (
    MAX_PULL,
    _BALL_BATCH,
    _CHUNK,
    _FD_CHECKS,
    _FD_RHO_MAX,
    _FD_RHO_MIN,
    _annihilation_reach,
    _annulus_share,
    _box_chunks,
    _box_draw,
    _gauge_moment,
    _linear_fit,
    _quartic_profile,
    _stencil_error,
    _stencil_points,
    _sweep_radius,
    ball_volume_check,
    gauge_box_halfwidths,
    power_profile,
    radial_hessian_check,
    tight_pointwise_bound,
)
from carnotx.group import _gauge_parts
from carnotx.pucci import _frobenius
from carnotx.report import dumps
from carnotx.rng import substream

H1 = heisenberg(1)

CFG = CounterexampleConfig(
    d=1,
    alpha=0.5,
    eps_list=(2.0**-3, 2.0**-4, 2.0**-5, 2.0**-6),
    q_list=(2.0, 8.0 / 3.0),
)


def _on_gauge(group, x, rho):
    """The points x dilated onto the gauge spheres of radii rho."""
    lam = rho / _gauge_parts(group, x)[0]
    x = x * lam[:, None]
    x[:, -1] *= lam
    return x


class TestCriticalExponents:
    def test_q_star_frozen(self):
        assert CFG.critical_q() == pytest.approx(8.0 / 3.0, rel=1e-15)
        cfg = CounterexampleConfig(d=2, alpha=0.3, eps_list=CFG.eps_list, q_list=(2.0,))
        assert cfg.critical_q() == pytest.approx(6.0 / 1.7, rel=1e-15)


class TestConfig:
    def test_ellipticity_window(self):
        e = CFG.ellipticity()
        assert e.lam == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert e.Lam == pytest.approx(2.0, rel=1e-15)

    def test_rhs_amplitude_frozen(self):
        # 2 a Q / (Q - 1) with a = alpha / 2 = 1/4 and Q = 4.
        assert CFG.rhs_amplitude == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_validation(self):
        good = dict(d=1, alpha=0.5, eps_list=(0.125,), q_list=(2.0,))
        CounterexampleConfig(**good)
        for bad in (
            dict(good, alpha=0.0),
            dict(good, alpha=1.0),
            dict(good, d=0),
            dict(good, d=True),
            dict(good, eps_list=(1.5,)),
            dict(good, q_list=(1.0,)),
            dict(good, q_list=(4.0,)),
            dict(good, eps_list=(0.125, 0.25, 0.125)),
            dict(good, q_list=(2.0, 2.0)),
        ):
            with pytest.raises(ValueError):
                CounterexampleConfig(**bad)


class TestProfile:
    def test_value_continuity_at_splice(self):
        for eps in CFG.eps_list:
            profile = counterexample_profile(CFG, eps)
            inner = float(profile.psi(eps * (1.0 - 1e-13)))
            outer = float(profile.psi(eps))
            assert inner == pytest.approx(outer, abs=1e-12)

    def test_splice_has_no_slope_jump(self):
        # The slopes of the two branches meet at the splice, and, as an
        # independent check on the field, centred second differences along
        # horizontal lines across rho = eps stay level as the step halves.
        # A slope jump would make them grow like 1/s: the negative control
        # is the splice with inner coefficient alpha, which has one.
        eps, s = 0.125, 1e-3
        for d in (1, 2, 3):
            group = heisenberg(d)
            rng = np.random.default_rng(7)
            x0 = _on_gauge(group, rng.standard_normal((400, group.n)), eps)
            directions = rng.standard_normal((400, group.m))
            for alpha in (0.3, 0.5, 0.9):
                profile = counterexample_profile(dataclasses.replace(CFG, d=d, alpha=alpha), eps)
                slope_in, slope_out = profile.psi_prime(np.array([eps * (1 - 1e-13), eps]))
                assert slope_in / slope_out == pytest.approx(1.0, rel=1e-10)

                def kinked(r, outer=profile.psi, alpha=alpha):
                    r = np.asarray(r, dtype=float)
                    inner = 1.0 - alpha * eps ** (alpha - 2.0) * r**2 - (1.0 - alpha) * eps**alpha
                    return np.where(r >= eps, outer(r), inner)

                # field_from_profile reads psi alone.
                kink = dataclasses.replace(profile, name="kink", psi=kinked)
                ratios = []
                for p in (profile, kink):
                    u = field_from_profile(group, p)
                    second = []
                    for h in (s, s / 2):
                        line = integrate_xline(group, x0, directions, np.array([-h, 0.0, h]))
                        v = u.evaluate(line)
                        second.append(np.abs(v[:, 0] - 2.0 * v[:, 1] + v[:, 2]) / h**2)
                    ratios.append(float(np.median(second[1] / second[0])))
                assert abs(ratios[0] - 1.0) <= 0.02, (d, alpha, ratios)
                assert ratios[1] >= 1.9, (d, alpha, ratios)

    def test_semiconvexity_constant_is_closed_form(self):
        # With a = alpha / 2 the lowest horizontal Hessian eigenvalue of u_eps
        # is -c(eps), c(eps) = 3 alpha eps^(alpha - 2): the tangential one,
        # constant inside B_eps and largest in size at rho = eps outside, and
        # attained where |D rho| = 1, on the t = 0 plane.
        def matches(lowest, c):
            return -c * (1.0 + 1e-12) <= lowest <= -c * (1.0 - 1e-12)

        n = 2000
        for d in (1, 2):
            group = heisenberg(d)
            for alpha in (0.3, 0.5, 0.7):
                for eps in (2.0**-3, 2.0**-6, 2.0**-9):
                    rng = np.random.default_rng(3)
                    x = rng.standard_normal((n, group.n))
                    x[: n // 2, -1] = 0.0
                    x = _on_gauge(group, x, rng.uniform(eps / 2, 2 * eps, n))
                    cfg = dataclasses.replace(CFG, d=d, alpha=alpha)
                    profile = counterexample_profile(cfg, eps)
                    rho, _, g = _gauge_parts(group, x)
                    eigs = _radial_eigenvalues(d, profile, rho, g)
                    c = 3.0 * alpha * eps ** (alpha - 2.0)
                    lowest = float(np.min(eigs))
                    assert matches(lowest, c), (d, alpha, eps, lowest / c)
                    assert not matches(lowest, 0.99 * c) and not matches(lowest, 1.01 * c)
                    # The closed-form multiset against the Hessian matrices.
                    exact = sym_eigenvalues(radial_hessian(group, profile, x[:64]).matrix)
                    err = np.abs(np.sort(eigs[:64], axis=-1) - exact)
                    scale = np.max(np.abs(exact), axis=-1, keepdims=True)
                    assert np.all(err <= 1e-12 * scale), (d, alpha, eps)

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
        rho0 = float(_gauge_parts(H1, x[0])[0])
        assert vals[0] == pytest.approx(1.0 - math.sqrt(rho0))
        assert float(_gauge_parts(H1, x[2])[0]) == eps
        assert u.in_domain(x).tolist() == [True, False, False]


class TestRhs:
    def test_frozen_inner_value(self):
        f = counterexample_rhs_field(CFG, 0.125)
        got = float(f.evaluate(np.array([0.01, 0.02, 0.001])))
        assert got == pytest.approx(-6.7461923416925424, rel=1e-14)

    def test_zero_outside(self):
        f = counterexample_rhs_field(CFG, 0.125)
        assert float(f.evaluate(np.array([0.5, 0.5, 0.0]))) == 0.0


class TestAnnihilation:
    def test_passes_with_vanishing_residuals(self):
        rep = verify_pucci_annihilation(CFG, 0.125, n_samples=3000, seed=11)
        assert rep.passed, rep
        assert rep.max_outer_residual <= 1e-12
        assert rep.max_inner_residual <= 1e-12
        assert rep.n_inner > 0 and rep.n_outer > 0

    @pytest.mark.parametrize("eps", [0.3, 0.5, 0.6])
    def test_two_samples_check_both_regions(self, eps):
        # The outer region is the annulus eps <= rho < 1, so whatever the
        # seed one sample checks each identity, and the stencil points come
        # from their own annulus sampler.
        for seed in range(40):
            rep = verify_pucci_annihilation(CFG, eps, n_samples=2, seed=seed)
            assert rep.passed, (seed, rep)
            assert (rep.n_outer, rep.n_inner) == (1, 1)

    def test_source_is_the_rhs_field(self, monkeypatch):
        # The identity is checked against `counterexample_rhs_field` itself,
        # so a shifted source shows up as a unit residual in both regions.
        import carnotx.estimates as estimates

        eps = 0.125
        real = estimates.counterexample_rhs_field
        scale = eps ** (CFG.alpha - 2.0)

        def shifted(cfg, r):
            f = real(cfg, r)
            return _gauge_field(H1, f.name, lambda rho, h2, g: f.of_gauge(rho, h2, g) + scale)

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
        rho, _, g = _gauge_parts(H1, pts)
        keep = (rho > eps + 1e-3) & (rho < 1.0) & (np.hypot(pts[:, 0], pts[:, 1]) > 1e-3)
        eigs = _radial_eigenvalues(1, profile, rho[keep], g[keep])
        e = cfg.ellipticity()
        detuned = Ellipticity(lam=e.lam, Lam=1.1 * e.Lam)
        residual = np.abs(pucci_plus_of_eigenvalues(eigs, detuned))
        assert float(np.max(residual)) > 1e-3

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_thin_stencil_window_is_rejected_up_front(self, d):
        # The window [0.89999999, 0.9) is expected to keep about 0.02, 0.009
        # and 0.003 rows of the sampler's 640000 draws on H^1-H^3; the
        # window [0.88, 0.9) of eps = 0.85 is expected to keep thousands.
        cfg = CounterexampleConfig(d=d, alpha=0.5, eps_list=(0.5,), q_list=(2.0,))
        thin = r"stencil window 0\.89999999 <= rho < 0\.9 is too thin"
        with pytest.raises(ValueError, match=thin):
            verify_pucci_annihilation(cfg, 0.86999999, n_samples=2, seed=1)
        assert verify_pucci_annihilation(cfg, 0.85, n_samples=2, seed=1).passed

    def test_a_failed_stencil_draw_names_its_window(self, monkeypatch):
        # The up-front rule is a bound; the draw's RuntimeError stays the last guard.
        import carnotx.estimates as estimates

        def exhausted(group, rho_max, rho_min, min_horizontal):
            def draw(count, rng):
                raise RuntimeError(f"rejection sampling kept 0 of {count} rows in 3 rounds")

            return draw

        monkeypatch.setattr(estimates, "gauge_ball_sampler", exhausted)
        with pytest.raises(RuntimeError) as err:
            verify_pucci_annihilation(CFG, 0.5, n_samples=2, seed=1)
        assert str(err.value) == (
            "splice radius 0.5: the stencil annulus 0.53 <= rho < 0.9 is too thin to sample"
            " (rejection sampling kept 0 of 12 rows in 3 rounds)"
        )


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

    def test_ball_volume_check_fails_a_ten_sigma_bias(self, monkeypatch):
        import carnotx.estimates as estimates

        quad = QuadratureSpec(n_samples=20000, seed=3)
        (honest,) = ball_volume_check(H1, (1.0,), quad)
        assert honest.passed and honest.exact == pytest.approx(math.pi**2 / 2.0, rel=1e-15)
        real = estimates.ball_volume

        def biased(group, r, quad):
            est = real(group, r, quad)
            return McEstimate(est.value + 10.0 * est.stderr, est.stderr)

        monkeypatch.setattr(estimates, "ball_volume", biased)
        (row,) = ball_volume_check(H1, (1.0,), quad)
        assert row.pull == pytest.approx(honest.pull + 10.0, rel=1e-12)
        assert not row.passed

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
        rho = _gauge_parts(H1, pts)[0]
        assert np.all(rho < 1.0) and np.all(rho >= 0.3)
        assert np.all(np.hypot(pts[:, 0], pts[:, 1]) >= 0.1)
        assert np.all(np.abs(rho - 0.5) >= 0.05)

    @pytest.mark.parametrize(
        "bounds",
        [
            {"rho_max": 0.5, "rho_min": 0.6},
            {"rho_max": 0.5, "rho_min": 0.5},
            {"rho_max": 0.5, "rho_min": -0.1},
            {"rho_max": 0.5, "min_horizontal": 0.5},
            {"rho_max": 0.5, "min_horizontal": -0.1},
            {"rho_max": math.nan},
        ],
    )
    def test_empty_annulus_is_rejected_at_construction(self, bounds):
        with pytest.raises(ValueError, match="annulus"):
            gauge_ball_sampler(H1, **bounds)


def test_substream_rejects_seeds_outside_its_key():
    # Keyed modulo 2^64, seed -1 would draw the stream of seed 2^64 - 1.
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\^64\)"):
            substream(seed, "box")
    for seed in (0, 2**64 - 1):
        assert substream(seed, "box").random() >= 0.0


class TestSweep:
    def test_determinism_across_workers(self):
        quad = QuadratureSpec(n_samples=2000, seed=21)
        a = dumps(sweep_scaling(CFG, quad, workers=1))
        b = dumps(sweep_scaling(CFG, quad, workers=3))
        assert a == b

    def test_annihilation_units_are_the_direct_checks(self, monkeypatch):
        # The checks run in the sweep's pool, each on its own substream: the
        # same reports as direct calls, in eps order, at any worker count.
        import carnotx.estimates as estimates

        quad = QuadratureSpec(n_samples=2000, seed=21)
        rep = sweep_scaling(CFG, quad, workers=1, annihilation_samples=40)
        assert dumps(rep) == dumps(sweep_scaling(CFG, quad, workers=3, annihilation_samples=40))
        direct = [verify_pucci_annihilation(CFG, eps, 40, 21) for eps in CFG.eps_list]
        assert dumps(rep.annihilation) == dumps(direct)
        assert rep.passed
        assert sweep_scaling(CFG, quad).annihilation == []

        real = estimates.verify_pucci_annihilation

        def failing(cfg, eps, *args):
            return dataclasses.replace(real(cfg, eps, *args), passed=eps != CFG.eps_list[-1])

        monkeypatch.setattr(estimates, "verify_pucci_annihilation", failing)
        failed = sweep_scaling(CFG, quad, workers=2, annihilation_samples=40)
        assert all(fit["passed"] for fit in failed.fits) and not failed.passed

    def test_verdict_structure(self):
        quad = QuadratureSpec(n_samples=20000, seed=21)
        rep = sweep_scaling(CFG, quad)
        assert len(rep.rows) == len(CFG.eps_list) * len(CFG.q_list)
        kinds = {fit["q"]: fit["kind"] for fit in rep.fits}
        assert kinds[2.0] == "power"
        assert kinds[8.0 / 3.0] == "critical"
        for row in rep.rows:
            assert row.u_sup <= 1.0
            assert row.f_mass > 0

    def test_one_weighted_fit_serves_both_verdicts(self):
        # numpy's polyfit, weighted by 1/sd with the unscaled covariance, is the oracle.
        x, y = np.log([0.5, 0.25, 0.125, 0.0625]), np.array([0.3, 0.9, 1.2, 2.1])
        sd = np.array([0.1, 0.2, 0.05, 0.4])
        slope, se, intercept, _ = _linear_fit(x, y, sd)
        want, cov = np.polyfit(x, y, 1, w=1.0 / sd, cov="unscaled")
        assert (slope, intercept) == pytest.approx(tuple(want), rel=1e-12)
        assert se == pytest.approx(math.sqrt(cov[0, 0]), rel=1e-12)

        rep = sweep_scaling(CFG, QuadratureSpec(n_samples=2000, seed=21))
        power, critical = rep.fits
        eps = np.array(CFG.eps_list)
        mass = np.array([row.f_mass for row in rep.rows[0::2]])
        stderr = np.array([row.f_mass_stderr for row in rep.rows[0::2]])
        slope, se, intercept, r2 = _linear_fit(np.log(eps), np.log(mass), stderr / mass)
        assert (power["fitted_slope"], power["slope_stderr"]) == (slope, se)
        assert (power["intercept"], power["r2"]) == (intercept, r2)
        assert power["slope_pull"] == (slope - power["predicted_slope"]) / se
        worst = max((row.f_pull for row in rep.rows[0::2]), key=abs)
        assert power["worst_f_pull"] == worst
        assert power["passed"] == (
            abs(power["slope_pull"]) <= MAX_PULL and abs(worst) <= MAX_PULL
        )
        assert rep.passed == (power["passed"] and critical["passed"])
        # Unit weights give the critical fit the ordinary R^2.
        outer = [row.hess_mass_outer for row in rep.rows[1::2]]
        want_r2 = np.corrcoef(np.log(1.0 / eps), outer)[0, 1] ** 2
        assert critical["r2"] == pytest.approx(want_r2, abs=1e-12)

    def test_requires_enough_radii(self):
        quad = QuadratureSpec(n_samples=2000, seed=1)
        with pytest.raises(ValueError):
            sweep_scaling(
                CounterexampleConfig(d=1, alpha=0.5, eps_list=(0.125, 0.25), q_list=(2.0,)),
                quad,
            )

    def test_negative_annihilation_samples_are_rejected(self):
        # 0 switches the check off; a negative count is an error, not "off".
        quad = QuadratureSpec(n_samples=2000, seed=1)
        for n in (-1, -5):
            with pytest.raises(ValueError, match="at least 2 samples"):
                sweep_scaling(CFG, quad, annihilation_samples=n)

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

    def test_tight_check_flags_a_field_past_c4(self, monkeypatch):
        # -3|x_H|^2/2 is semiconvex with constant 3, above the check's c4 = 1.
        import carnotx.estimates as estimates

        e = Ellipticity(lam=1.0, Lam=2.0)
        rep = tight_pointwise_bound(H1, e, count=16, seed=42)
        assert rep.passed and rep.n_points == 16
        assert abs(rep.lower_margin) <= 1e-12 and abs(rep.upper_margin) <= 1e-12
        real = estimates.horizontal_quadratic
        monkeypatch.setattr(
            estimates, "horizontal_quadratic", lambda group, coeff: real(group, 3.0 * coeff)
        )
        rep = tight_pointwise_bound(H1, e, count=16, seed=42)
        assert not rep.passed and not rep.semiconvex_ok

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
        # The column-wise box fill must give numpy's uniform-times-half-widths
        # bits on every column count, chunked and in one draw.
        for group in (H1, H2, heisenberg(3)):
            want = _whole_box(group, 0.7, count, substream(3, "box"))
            starts, parts = [], []
            for start, pts in _box_chunks(group, 0.7, count, substream(3, "box")):
                starts.append(start)
                parts.append(pts.copy())
            assert starts == list(range(0, count, _CHUNK))
            got = np.concatenate(parts)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            drawn = _box_draw(group, 0.7)(count, substream(3, "box"))
            assert np.array_equal(drawn.view(np.uint64), want.view(np.uint64))

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
        # Exact masses: Q = 4, a = alpha / 2, and beta = 0 at the critical q = 8/3.
        moment = _gauge_moment(H1, q)
        inner = eps ** ((CFG.alpha - 2.0) * q) * eps**4.0 * moment
        beta = row.predicted_exponent
        radial = math.log(1.0 / eps) if i_q == 1 else (1.0 - eps**beta) / beta
        assert row.f_mass_exact == CFG.rhs_amplitude**q * inner
        assert row.f_pull == (row.f_mass - row.f_mass_exact) / row.f_mass_stderr
        assert row.hess_mass_inner == (6.0 * CFG.inner_coefficient) ** q * inner
        assert row.hess_mass_outer == (3.0 * CFG.alpha) ** q * 4.0 * moment * radial

    def test_u_sup_is_the_profile_maximum(self):
        # The closed form psi(0) against the maximum on a fine grid of [0, 1].
        grid = np.linspace(0.0, 1.0, 8193)
        for alpha in (0.1, 0.3, 0.5, 0.7, 0.9):
            cfg = CounterexampleConfig(
                d=1, alpha=alpha, eps_list=(2.0**-3, 2.0**-8, 0.6, 0.25),
                q_list=(2.0,),
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

        def counting(span, rng, out):
            r = float(span[0]) / 2.0  # the first box width is 2 r
            drawn[r] = drawn.get(r, 0) + len(out)
            return real(span, rng, out)

        monkeypatch.setattr(estimates, "_sample_box", counting)
        cfg = CounterexampleConfig(
            d=1, alpha=0.5, eps_list=CFG.eps_list, q_list=(2.0, 2.5, 8.0 / 3.0)
        )
        n = _CHUNK + 5
        rep = sweep_scaling(cfg, QuadratureSpec(n_samples=n, seed=3), workers=2)
        assert len(rep.rows) == 4 * 3
        assert drawn == {eps: n for eps in cfg.eps_list}


def _reference_lq(u, group, r, qs, quad):
    """`lq_norm` rebuilt the way a boolean-gather integrator computes it.

    Every box point is drawn and gauged in one whole array, `u` is evaluated
    on the rows `pts[inside]`, and the per-chunk moments of those values
    (a sum, and an einsum of the centred weights with themselves) merge in chunk order by the
    same Chan update.
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
            dev = w - m
            ss = float(np.einsum("i,i->", dev, dev)) + (k - len(v)) * m * m
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


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: ball_volume_check(H1, (), QuadratureSpec(n_samples=2000, seed=1)), "radius"),
        (lambda: radial_hessian_check(H1, 0.5, 0, 1), "points=0"),
    ],
    ids=["ball-volume-no-radii", "radial-no-points"],
)
def test_empty_work_is_a_value_error(call, match):
    # No radius would leave an empty list that all(...) reads as a pass, and no point
    # leaves no worst point to report.
    with pytest.raises(ValueError, match=match):
        call()


def test_ball_volume_check_refuses_a_repeated_radius():
    # A repeated radius would draw its substream again and repeat its row.
    quad = QuadratureSpec(n_samples=2000, seed=1)
    with pytest.raises(ValueError, match=r"^ball radius 1\.0 is repeated$"):
        ball_volume_check(H1, (1.0, 0.5, 1.0), quad)


def test_exact_hessians_below_sqrt_tiny_are_refused():
    # At alpha = 1e-160 every entry of the exact Hessian of 1 - rho^alpha is
    # below sqrt(tiny), so its squares, and the norm summed from them, are
    # subnormal: the norm would be off by percents.  At 1e-150 they are normal.
    with pytest.raises(ValueError, match=r"profile power\[1e-160\]: .* sqrt\(tiny\)"):
        radial_hessian_check(H1, 1e-160, points=200, seed=42)
    rows = radial_hessian_check(H1, 1e-150, points=200, seed=42)
    assert [row.profile for row in rows] == ["power[1e-150]", "quartic"]
    assert all(row.max_rel_error > 0.0 for row in rows)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_radial_check_witness_is_the_worst_point_with_its_hessians(d):
    # The witness is the drawn point of largest error; its two Hessians give
    # max_rel_error bit for bit, and each keeps the bits of a call at that
    # point alone: the stencil's and the closed form's bits are per point.
    group = heisenberg(d)
    rows = radial_hessian_check(group, 0.5, points=30, seed=3)
    pts = _stencil_points(group, _FD_RHO_MIN, 30, substream(3, "verify-radial"), "draw")
    profiles = (power_profile(0.5), _quartic_profile())
    errors = _stencil_error(group, profiles, pts)[0]
    for row, profile, row_errors in zip(rows, profiles, errors):
        point, stencil, exact = (row.witness[key] for key in ("point", "stencil", "exact"))
        assert np.array_equal(point, pts[np.argmax(row_errors)])
        assert stencil.shape == exact.shape == (group.m, group.m)
        assert _frobenius((stencil - exact) / _frobenius(exact)) == row.max_rel_error
        alone = horizontal_hessian_sym(group, field_from_profile(group, profile), point)
        assert np.array_equal(alone.view(np.uint64), stencil.view(np.uint64))
        alone = radial_hessian(group, profile, point).matrix
        assert np.array_equal(alone.view(np.uint64), exact.view(np.uint64))


@pytest.mark.parametrize("n", [1, 15, 16, 17, 200])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_stencil_error_stacks_profiles_with_their_own_bits(d, n):
    # One stencil pass for every profile; each row has the bits of the
    # profile alone, through the stack and through its own field.
    group = heisenberg(d)
    profiles = (power_profile(0.3), _quartic_profile(), power_profile(0.7))
    pts = _stencil_points(group, _FD_RHO_MIN, n, substream(5, "stack"), "stack")
    got = _stencil_error(group, profiles, pts)[0]
    assert got.shape == (len(profiles), n)
    for row, profile in zip(got, profiles):
        alone = _stencil_error(group, (profile,), pts)[0][0]
        exact = radial_hessian(group, profile, pts).matrix
        stencil = horizontal_hessian_sym(group, field_from_profile(group, profile), pts)
        own = _frobenius((stencil - exact) / _frobenius(exact)[:, None, None])
        assert np.array_equal(row.view(np.uint64), alone.view(np.uint64)), profile.name
        assert np.array_equal(row.view(np.uint64), own.view(np.uint64)), profile.name


@pytest.mark.parametrize("pass_size", [1, 3, None], ids=["1", "3", "stack"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_pass_size_does_not_move_the_stencil_bits(d, pass_size, monkeypatch):
    # verify-radial's two stacked profiles, differenced in passes of 1 point,
    # 3 points or the whole stack, keep the bits of the default passes of P
    # points, on stacks that end a point short of, at and past a pass.
    import carnotx.calculus as calculus

    group = heisenberg(d)
    rows = 6 * group.m**2 + 1
    per_pass = calculus._FD_ROWS // rows
    profiles = (power_profile(0.5), _quartic_profile())
    for n in (per_pass - 1, per_pass, per_pass + 1, 2 * per_pass + 5):
        pts = _stencil_points(group, _FD_RHO_MIN, n, substream(11, "passes", n), "passes")
        want = _stencil_error(group, profiles, pts)[1]
        with monkeypatch.context() as patch:
            patch.setattr(calculus, "_FD_ROWS", (pass_size or n) * rows)
            got = _stencil_error(group, profiles, pts)[1]
        assert got.shape == (2, n, group.m, group.m)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), n


# The stencil annulus of verify-radial on H^1-H^4, and the annihilation's
# stencil windows above the splice radii 2^-3 and 2^-8 on H^1 and H^2.
SAMPLED_WINDOWS = [(d, None) for d in (1, 2, 3, 4)] + [
    (d, eps) for d in (1, 2) for eps in (2.0**-3, 2.0**-8)
]


@pytest.mark.parametrize("d, eps", SAMPLED_WINDOWS)
def test_sized_rounds_keep_the_rows_of_64_row_rounds(d, eps, monkeypatch):
    # A round sized from the annulus's share draws further along the box
    # stream than 64-row rounds, but the rows kept are the first `count`
    # that land either way: the same draw, keep and seed give the same bits.
    import carnotx.estimates as estimates

    group = heisenberg(d)
    lo = _FD_RHO_MIN if eps is None else _annihilation_reach(dataclasses.replace(CFG, d=d), eps, 2)
    real, seen = estimates._rejection_sample, []

    def recording(draw, keep, count, rng, batch_floor):
        seen.append((draw, keep))
        return real(draw, keep, count, rng, batch_floor)

    monkeypatch.setattr(estimates, "_rejection_sample", recording)
    for count in (1, 12, 200, 1000):
        got = _stencil_points(group, lo, count, substream(9, "rounds", count), "rounds")
        draw, keep = seen[-1]
        want = real(draw, keep, count, substream(9, "rounds", count), _BALL_BATCH)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), count


def test_a_round_is_sized_from_its_annulus_until_it_passes_a_chunk(monkeypatch):
    # 200 points of H^2's stencil annulus take one round of 1.25 x 200 / share
    # draws; on H^6 that would exceed a chunk, so its rounds keep the 64-row floor.
    import carnotx.estimates as estimates

    floors = []

    def recording(draw, keep, count, rng, batch_floor):
        floors.append(batch_floor)
        return np.empty((0, 0))

    monkeypatch.setattr(estimates, "_rejection_sample", recording)
    for d in (2, 6):
        _stencil_points(heisenberg(d), _FD_RHO_MIN, 200, substream(1, "floor"), "floor")
    share = {d: _annulus_share(heisenberg(d), _FD_RHO_MAX, _FD_RHO_MIN) for d in (2, 6)}
    h2, h6 = (math.ceil(1.25 * 200 / share[d]) for d in (2, 6))
    assert h6 > _CHUNK
    assert floors == [h2, _BALL_BATCH]


class TestGaugeReuse:
    @pytest.mark.parametrize("count", [_CHUNK - 1, STRADDLE])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_rhs_lq_norm_equals_row_gather_reference(self, count, d):
        # The integrator hands the rhs the compressed gauge; a reference that
        # gathers the inside rows and evaluates them gives the same bits.
        cfg = dataclasses.replace(CFG, d=d)
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
        cfg = dataclasses.replace(CFG, d=d)
        fields = [
            seen[0],
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
        """(piece, rows) of every call of either gauge piece, whoever makes it.

        "fourth" is `_gauge_fourth` (rho^4 and |x_H|^2 from points), which
        `_gauge` and `_gauge_parts` go through; "slope" is `_gauge_slope`
        (|D rho|^2 from rho and |x_H|^2).
        """
        import carnotx.calculus as calculus
        import carnotx.estimates as estimates
        import carnotx.group as group_module

        seen = []

        def counting(piece, real):
            def wrapper(*args, **kwargs):
                rows = np.shape(args[1])[:-1] if piece == "fourth" else np.shape(args[0])
                seen.append((piece, int(np.prod(rows))))
                return real(*args, **kwargs)

            return wrapper

        for piece, name in (("fourth", "_gauge_fourth"), ("slope", "_gauge_slope")):
            wrapper = counting(piece, getattr(group_module, name))
            for module in (group_module, calculus, estimates):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, wrapper)
        return seen

    def test_sweep_radius_gauges_each_box_point_once(self, gauged):
        # rho^4 and |x_H|^2 on every box point, |D rho|^2 on the inside
        # points only, and neither a second time by the rhs field.
        n = STRADDLE
        rows = _sweep_radius(CFG, QuadratureSpec(n_samples=n, seed=4), CFG.eps_list[0])
        assert 0 < rows[0].n_inside < n
        assert sum(k for piece, k in gauged if piece == "fourth") == n
        assert sum(k for piece, k in gauged if piece == "slope") == rows[0].n_inside

    def test_annihilation_gauges_its_sample_once(self, gauged):
        # The residual's rhs and closed-form eigenvalues share one gauge of
        # the final sample; the draws' keep tests never compute |D rho|^2.
        rep = verify_pucci_annihilation(CFG, 0.125, n_samples=400, seed=11)
        assert rep.passed
        assert gauged.count(("fourth", 400)) == gauged.count(("slope", 400)) == 1
        # Besides the sample, only the closed-form Hessians of the 32-point
        # route subsample and the 12 stencil points read |D rho|^2.
        assert sorted(k for piece, k in gauged if piece == "slope") == [_FD_CHECKS, 32, 400]

    def test_profile_field_never_computes_the_slope(self, gauged):
        # field_from_profile reads rho alone: neither its values, nor its
        # domain, nor the stencil built on them compute |D rho|^2.
        for d in (1, 2):
            group = heisenberg(d)
            profile = counterexample_profile(dataclasses.replace(CFG, d=d), 0.125)
            u = field_from_profile(group, profile)
            pts = _stencil_points(group, _FD_RHO_MIN, 20, substream(6, "profile"), "profile")
            u.evaluate(pts)
            u.in_domain(pts)
            horizontal_hessian_sym(group, u, pts)
        assert gauged and {piece for piece, _ in gauged} == {"fourth"}

    @pytest.mark.parametrize("d, distinct", [(1, 25), (2, 97), (3, 217)])
    def test_verify_radial_gauges_each_stencil_point_once(self, d, distinct, gauged, monkeypatch):
        # Both profiles share one stencil pass, which gauges each distinct
        # stencil row of a point once: its centre and 6 rows along each of
        # the m^2 frame directions, of 10 m^2 at h and h/2.
        import carnotx.calculus as calculus

        real, spans = calculus._horizontal_fd, []

        def spanned(group, u, x):
            start = len(gauged)
            out = real(group, u, x)
            spans.append((start, len(gauged)))
            return out

        monkeypatch.setattr(calculus, "_horizontal_fd", spanned)
        n = 40
        assert run(["verify-radial", "--group", f"h:{d}", "--points", str(n)]) == 0
        assert len(spans) == 1
        lo, hi = spans[0]
        assert sum(k for piece, k in gauged[lo:hi] if piece == "fourth") == n * distinct

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_rows_at_the_rim_are_inside_by_rho(self, d, monkeypatch):
        # The integrator takes rho only where rho^4 is within reach of r^4.
        # Box points a few ulps and 1e-13 to 1e-9 from the sphere rho = r
        # must still be inside exactly where rho < r, with those rho.
        import carnotx.estimates as estimates

        group, r, n = heisenberg(d), 0.3, 6000
        rng = np.random.default_rng(60 + d)
        pts = rng.uniform(-1.0, 1.0, (n, group.n))
        rel = rng.choice([0.0, 1e-9, 1e-13, 1e-15, 2.0**-52, 2.0**-53], n) * rng.choice([-1, 1], n)
        scale = r * (1.0 + rel) / _gauge_parts(group, pts)[0]
        pts *= scale[:, None] ** np.array(group.dilation_weights, dtype=float)
        rho = _gauge_parts(group, pts)[0]
        assert 0 < np.count_nonzero(rho < r) < n and np.count_nonzero(rho == r) > 0

        monkeypatch.setattr(estimates, "_sample_box", lambda span, rng, out: pts[: len(out)])
        seen = []

        def record(rho, h2, g):
            seen.append(rho.copy())
            return np.ones(len(rho))

        one = _gauge_field(group, "one", record)
        (est,) = lq_norm(one, group, r, (2.0,), QuadratureSpec(n_samples=n, seed=1))
        assert est.n_inside == np.count_nonzero(rho < r)
        assert np.array_equal(np.concatenate(seen), rho[rho < r])


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
