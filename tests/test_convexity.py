"""Horizontal lines and the two semiconvexity checkers."""

import dataclasses

import numpy as np
import pytest

from carnotx import (
    Ellipticity,
    add_horizontal_quadratic,
    check_semiconvex_eigen,
    check_semiconvex_lines,
    constant_field,
    convexity_catalog,
    gauge_quartic,
    group_multiply,
    heisenberg,
    horizontal_quadratic,
    integrate_xline,
    pointwise_bound_check,
    pucci_minus,
    saddle_field,
    xline,
)
from carnotx.calculus import ScalarField

H1 = heisenberg(1)
H2 = heisenberg(2)


def box_sampler(group):
    def sampler(count, rng):
        return rng.uniform(-1.0, 1.0, size=(count, group.n))

    return sampler


class TestXLines:
    def test_line_is_group_translate_of_horizontal_ray(self):
        # x(t) = x0 * (t alpha, 0): straight in the group sense.
        rng = np.random.default_rng(1)
        for group in (H1, H2):
            x0 = rng.uniform(-1, 1, group.n)
            alpha = rng.standard_normal(group.m)
            alpha /= np.linalg.norm(alpha)
            for t in (-0.7, 0.3, 1.9):
                ray = np.zeros(group.n)
                ray[: group.m] = t * alpha
                want = group_multiply(group, x0, ray)
                got = integrate_xline(group, x0, alpha, t)
                assert np.allclose(got, want, atol=1e-14)

    def test_vertical_coordinate_moves_linearly(self):
        x0 = np.array([0.5, -0.3, 0.2])
        alpha = np.array([1.0, 0.0])
        ts = np.linspace(-1, 1, 9)
        path = integrate_xline(H1, x0, alpha, ts)
        t_coord = path[:, 2]
        diffs = np.diff(t_coord)
        assert np.allclose(diffs, diffs[0], atol=1e-14)

    def test_direction_is_normalized(self):
        x0 = np.zeros(3)
        a = integrate_xline(H1, x0, np.array([2.0, 0.0]), 1.0)
        b = integrate_xline(H1, x0, np.array([1.0, 0.0]), 1.0)
        assert np.allclose(a, b)

    def test_rk4_fallback_matches_closed_form(self):
        # Same frame without the Heisenberg tag: generic integrator path.
        generic = dataclasses.replace(H1, heisenberg_d=None, name="untagged")
        assert not generic.is_heisenberg()
        x0 = np.array([0.4, 0.8, -0.3])
        alpha = np.array([0.6, -0.8])
        for t in (-1.2, 0.5, 2.0):
            exact = integrate_xline(H1, x0, alpha, t)
            numeric = integrate_xline(generic, x0, alpha, t)
            assert np.allclose(numeric, exact, atol=1e-9)

    def test_xline_object(self):
        line = xline(H1, np.zeros(3), np.array([0.0, 1.0]), t_span=(-2.0, 2.0))
        pts = line.point_at(np.array([-2.0, 0.0, 2.0]))
        assert pts.shape == (3, 3)
        assert np.allclose(pts[1], 0.0)
        assert line.t_min == -2.0 and line.t_max == 2.0
        with pytest.raises(ValueError):
            xline(H1, np.zeros(3), np.array([0.0, 0.0]))
        with pytest.raises(ValueError):
            xline(H1, np.zeros(3), np.array([1.0, 0.0]), t_span=(2.0, -2.0))

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            integrate_xline(H1, np.zeros(2), np.array([1.0, 0.0]), 1.0)
        with pytest.raises(ValueError):
            integrate_xline(H1, np.zeros(3), np.array([1.0, 0.0, 0.0]), 1.0)


class TestCheckers:
    def test_catalog_thresholds_both_routes(self):
        sampler = box_sampler(H1)
        for case in convexity_catalog(H1):
            c0 = case.threshold
            for c, expect in ((c0, True), (c0 + 0.5, True), (c0 - 0.3, False)):
                if c < 0:
                    continue
                lines = check_semiconvex_lines(
                    H1, case.field, c, sampler, line_count=48, seed=5
                )
                eigen = check_semiconvex_eigen(
                    H1, case.field, c, sampler, point_count=48, seed=5
                )
                assert lines.passed is expect, (case.field.name, c, lines)
                assert eigen.passed is expect, (case.field.name, c, eigen)

    def test_catalog_composition(self):
        cases = convexity_catalog(H1)
        assert len(cases) == 6
        thresholds = sorted(case.threshold for case in cases)
        assert thresholds[:3] == [0.0, 0.0, 0.0]  # three convex entries
        assert thresholds[3:5] == [1.0, 1.0]  # two strictly semiconvex entries
        assert thresholds[5] > 2.0  # one beyond every tested constant

    def test_gauge_quartic_is_convex_on_h2(self):
        sampler = box_sampler(H2)
        rep = check_semiconvex_lines(H2, gauge_quartic(H2), 0.0, sampler, 32, seed=2)
        assert rep.passed
        rep = check_semiconvex_eigen(H2, gauge_quartic(H2), 0.0, sampler, 32, seed=2)
        assert rep.passed

    def test_failure_reports_witness(self):
        u = horizontal_quadratic(H1, -2.0)  # needs c = 2
        rep = check_semiconvex_lines(H1, u, 1.0, box_sampler(H1), 32, seed=3)
        assert not rep.passed
        assert rep.witness is not None
        start = np.asarray(rep.witness["start"])
        direction = np.asarray(rep.witness["direction"])
        s = float(rep.witness["s"])
        u0 = float(u.evaluate(start))
        up = float(u.evaluate(integrate_xline(H1, start, direction, s)))
        um = float(u.evaluate(integrate_xline(H1, start, direction, -s)))
        slack = 2 * u0 - up - um - 1.0 * s * s
        assert slack == pytest.approx(rep.worst_slack, rel=1e-9)
        assert slack > 0

    def test_eigen_witness_location(self):
        u = saddle_field(H1)
        rep = check_semiconvex_eigen(H1, u, 0.5, box_sampler(H1), 32, seed=4)
        assert not rep.passed
        assert rep.witness["min_eigenvalue"] == pytest.approx(-1.0, abs=1e-8)

    def test_shift_reduces_to_plain_convexity(self):
        # u is c-semiconvex exactly when u + (c/2)|x_H|^2 passes at c=0.
        sampler = box_sampler(H1)
        for case in convexity_catalog(H1):
            for c in (0.0, 0.5, 1.0, 2.0):
                direct = check_semiconvex_lines(
                    H1, case.field, c, sampler, line_count=40, seed=6
                ).passed
                shifted_field = add_horizontal_quadratic(H1, case.field, c)
                shifted = check_semiconvex_lines(
                    H1, shifted_field, 0.0, sampler, line_count=40, seed=6
                ).passed
                assert direct == shifted, (case.field.name, c)

    def test_sampler_domain_exhaustion(self):
        nowhere = ScalarField(
            name="nowhere",
            evaluate=lambda x: np.zeros(x.shape[:-1]),
            smooth_domain=lambda x: np.zeros(x.shape[:-1], dtype=bool),
        )
        with pytest.raises(RuntimeError):
            check_semiconvex_eigen(H1, nowhere, 0.0, box_sampler(H1), 8, seed=1)

    def test_last_allowed_redraw_is_accepted(self):
        # 1 draw + 20 redraws: only the 21st call lands in the domain
        # {x_1 > 0}, and its points must be checked rather than rejected.
        u = dataclasses.replace(
            horizontal_quadratic(H1, -1.0), smooth_domain=lambda x: x[..., 0] > 0.0
        )
        e = Ellipticity(lam=1.0, Lam=2.0)
        f = constant_field(-e.Lam * H1.m)
        runs = {
            "eigen": lambda sampler: check_semiconvex_eigen(
                H1, u, 1.0, sampler, 8, seed=1
            ).n_checked,
            "pointwise": lambda sampler: pointwise_bound_check(
                H1, lambda mat: pucci_minus(mat, e), u, f,
                c4=1.0, e=e, sampler=sampler, count=8, seed=1,
            ).n_points,
        }
        for name, check in runs.items():
            calls = []

            def sampler(count, rng):
                calls.append(count)
                pts = rng.uniform(0.1, 1.0, size=(count, H1.n))
                pts[:, 0] *= 1.0 if len(calls) > 20 else -1.0
                return pts

            assert check(sampler) == 8, name
            assert len(calls) == 21, name

    def test_negative_constant_acts_as_uniform_convexity(self):
        # c < 0 demands second differences strictly below -|c| s^2.
        u = horizontal_quadratic(H1, 1.0)
        ok = check_semiconvex_lines(H1, u, -0.9, box_sampler(H1), 24, seed=1)
        assert ok.passed
        too_strict = check_semiconvex_lines(H1, u, -1.1, box_sampler(H1), 24, seed=1)
        assert not too_strict.passed
