"""Quadrature, the spliced family, and the verification harnesses."""

import math

import numpy as np
import pytest

from carnotx import (
    CounterexampleConfig,
    Ellipticity,
    IllPosedIntegrandError,
    QuadratureSpec,
    ScalarField,
    SingularPointError,
    alpha_for_critical_q,
    ball_volume,
    constant_field,
    counterexample_field,
    counterexample_profile,
    counterexample_rhs,
    counterexample_rhs_field,
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
from carnotx.report import dumps, sweep_report_dict

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
        u = counterexample_field(CFG, eps)
        x = np.array([[0.3, 0.2, 0.1], [0.0, 0.0, 0.5]])
        vals = u.evaluate(x)
        rho0 = float(homogeneous_norm(H1, x[0]))
        assert vals[0] == pytest.approx(1.0 - math.sqrt(rho0))
        assert u.in_domain(x).tolist() == [True, False]


class TestRhs:
    def test_frozen_inner_value(self):
        got = counterexample_rhs(CFG, 0.125, np.array([0.01, 0.02, 0.001]))
        assert got == pytest.approx(-13.492384683385085, rel=1e-14)

    def test_zero_outside(self):
        assert counterexample_rhs(CFG, 0.125, np.array([0.5, 0.5, 0.0])) == 0.0

    def test_axis_inside_is_singular(self):
        with pytest.raises(SingularPointError):
            counterexample_rhs(CFG, 0.125, np.array([0.0, 0.0, 1e-6]))

    def test_vectorized_field_matches_scalar(self):
        eps = 0.125
        f = counterexample_rhs_field(CFG, eps)
        rng = np.random.default_rng(3)
        pts = rng.uniform(-0.2, 0.2, (50, 3))
        vals = f.evaluate(pts)
        for k, x in enumerate(pts):
            if np.hypot(x[0], x[1]) == 0.0:
                continue
            assert vals[k] == pytest.approx(counterexample_rhs(CFG, eps, x), rel=1e-14)


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
        with pytest.raises(ValueError):
            QuadratureSpec(n_samples=2000, seed=0, method="quasi")
        for r in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                ball_volume(H1, r, QuadratureSpec(n_samples=2000, seed=0))

    def test_ball_volume_frozen_oracle(self):
        # |B_1| = pi^2/2 on H^1 (slice areas pi sqrt(1-t^2) integrated);
        # MC must land within 4 standard errors.
        est = ball_volume(H1, 1.0, QuadratureSpec(n_samples=200000, seed=9))
        assert abs(est.value - math.pi**2 / 2.0) <= 4.0 * est.stderr

    def test_ball_volume_grid_agrees_with_mc(self):
        mc = ball_volume(H1, 0.7, QuadratureSpec(n_samples=200000, seed=1))
        grid = ball_volume(
            H1, 0.7, QuadratureSpec(n_samples=200000, seed=1, method="tensor-grid")
        )
        assert grid.value == pytest.approx(mc.value, rel=0.02)

    def test_lq_norm_of_constant(self):
        u = constant_field(2.0)
        quad = QuadratureSpec(n_samples=100000, seed=7)
        est = lq_norm(u, H1, 1.0, 2.0, quad)
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
            lq_norm(u, H1, 1.0, 2.0, QuadratureSpec(n_samples=2000, seed=1))

    def test_lq_norm_exponent_validation(self):
        with pytest.raises(ValueError):
            lq_norm(constant_field(1.0), H1, 1.0, 1.0, QuadratureSpec(2000, 1))

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
        a = dumps(sweep_report_dict(sweep_scaling(CFG, quad, workers=1)))
        b = dumps(sweep_report_dict(sweep_scaling(CFG, quad, workers=3)))
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
        assert "workers" not in rep.config

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
        with pytest.raises(ValueError):
            pointwise_bound_check(
                H1, lambda mat: pucci_minus(mat, e),
                horizontal_quadratic(H1, 1.0), constant_field(10.0),
                c4=-1.0, e=e,
                sampler=lambda c, r: r.uniform(-1, 1, size=(c, 3)),
                count=8, seed=1,
            )
