"""Horizontal lines and the two semiconvexity checkers."""

import dataclasses
import math

import numpy as np
import pytest

from _oracles import group_multiply
from carnotx import (
    Ellipticity,
    add_horizontal_quadratic,
    check_semiconvex_eigen,
    check_semiconvex_lines,
    constant_field,
    convexity_catalog,
    gauge_ball_sampler,
    gauge_quartic,
    heisenberg,
    horizontal_quadratic,
    integrate_xline,
    pointwise_bound_check,
    pucci_minus,
    saddle_field,
)
import carnotx.calculus as calculus
import carnotx.estimates as estimates
from carnotx.calculus import ScalarField
from carnotx.catalog import ConvexityCase
from carnotx.convexity import _STEP_SIZES, _semiconvex_eigen, _semiconvex_lines, catalog_check

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

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            integrate_xline(H1, np.zeros(2), np.array([1.0, 0.0]), 1.0)
        with pytest.raises(ValueError):
            integrate_xline(H1, np.zeros(3), np.array([1.0, 0.0, 0.0]), 1.0)
        with pytest.raises(ValueError):
            integrate_xline(H1, np.zeros(3), np.array([0.0, 0.0]), 1.0)


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

    def test_catalog_check_flags_a_wrong_threshold(self, monkeypatch):
        # The quadratic -|x_H|^2/2 has threshold 1; claiming 0 makes both
        # checkers disagree with the catalog at every c below 1.
        import carnotx.convexity as convexity

        constants = (0.0, 0.5, 1.0, 2.0)
        assert all(row.agreed for row in catalog_check(H1, constants, 24, 24, seed=42))
        monkeypatch.setattr(
            convexity,
            "convexity_catalog",
            lambda group: [ConvexityCase(horizontal_quadratic(group, -1.0), threshold=0.0)],
        )
        rows = catalog_check(H1, constants, 24, 24, seed=42)
        assert [(row.c, row.expected, row.agreed) for row in rows] == [
            (0.0, True, False), (0.5, True, False), (1.0, True, True), (2.0, True, True)
        ]

    @pytest.mark.parametrize(
        "constants, match",
        [((), "at least one"), ((0.5, -1.0), ">= 0")],
        ids=["no-constants", "negative-constant"],
    )
    def test_catalog_check_refuses_constants_it_cannot_classify(self, constants, match):
        # No constant would leave an empty list that all(...) reads as a pass; below 0 the
        # catalog's thresholds define no expected outcome.
        with pytest.raises(ValueError, match=match):
            catalog_check(H1, constants, 8, 8, seed=1)

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

    def test_last_allowed_redraw_is_accepted(self, monkeypatch):
        # Every caller shares one rejection loop and its cap.  With the cap
        # at 5 rounds, a draw that first lands on round 5 is checked rather
        # than rejected, and one that never lands raises after 5 draws.
        rounds = 5
        monkeypatch.setattr(calculus, "_MAX_ROUNDS", rounds)
        u = dataclasses.replace(
            horizontal_quadratic(H1, -1.0), smooth_domain=lambda x: x[..., 0] > 0.0
        )
        e = Ellipticity(lam=1.0, Lam=2.0)
        f = constant_field(-e.Lam * H1.m)

        def ball(sampler):
            # The box draws of gauge_ball_sampler come from the test sampler.
            monkeypatch.setattr(
                estimates, "_sample_box", lambda span, rng, out: sampler(len(out), rng)
            )
            return len(gauge_ball_sampler(H1, rho_max=3.0)(8, np.random.default_rng(1)))

        def flip(pts):  # outside the domain {x_1 > 0}, lines' endpoints too
            pts[:, 0] *= -1.0
            return pts

        # caller -> (run returning the number of points or lines, a miss)
        runs = {
            "eigen": (
                lambda sampler: check_semiconvex_eigen(H1, u, 1.0, sampler, 8, seed=1).n_checked,
                flip,
            ),
            "pointwise": (
                lambda sampler: pointwise_bound_check(
                    H1, lambda mat: pucci_minus(mat, e), u, f,
                    c4=1.0, e=e, sampler=sampler, count=8, seed=1,
                ).n_points,
                flip,
            ),
            "lines": (
                lambda sampler: check_semiconvex_lines(
                    H1, u, 1.0, sampler, 8, seed=1
                ).n_checked // len(_STEP_SIZES),
                flip,
            ),
            "gauge_ball_sampler": (ball, lambda pts: 100.0 * pts),  # far outside B_3
        }
        for name, (check, miss) in runs.items():
            for land in (rounds, None):
                calls = []

                def sampler(count, rng):
                    calls.append(count)
                    pts = rng.uniform(0.2, 1.0, size=(count, H1.n))
                    return pts if land is not None and len(calls) >= land else miss(pts)

                if land is None:
                    with pytest.raises(RuntimeError, match="rejection"):
                        check(sampler)
                else:
                    assert check(sampler) == 8, name
                assert len(calls) == rounds, (name, land)

    def test_negative_constant_acts_as_uniform_convexity(self):
        # c < 0 demands second differences strictly below -|c| s^2.
        u = horizontal_quadratic(H1, 1.0)
        ok = check_semiconvex_lines(H1, u, -0.9, box_sampler(H1), 24, seed=1)
        assert ok.passed
        too_strict = check_semiconvex_lines(H1, u, -1.1, box_sampler(H1), 24, seed=1)
        assert not too_strict.passed


@pytest.mark.parametrize(
    "check",
    [
        lambda sampler: pointwise_bound_check(
            H1, lambda mat: pucci_minus(mat, Ellipticity(1.0, 2.0)),
            horizontal_quadratic(H1, -1.0), constant_field(-4.0),
            c4=1.0, e=Ellipticity(1.0, 2.0), sampler=sampler, count=0, seed=1,
        ),
        lambda sampler: check_semiconvex_eigen(
            H1, horizontal_quadratic(H1), 0.0, sampler, point_count=0, seed=1
        ),
        lambda sampler: check_semiconvex_lines(
            H1, horizontal_quadratic(H1), 0.0, sampler, line_count=0, seed=1
        ),
    ],
    ids=["pointwise_bound_check", "check_semiconvex_eigen", "check_semiconvex_lines"],
)
def test_degenerate_counts_are_rejected(check):
    with pytest.raises(ValueError, match="at least one"):
        check(box_sampler(H1))


@pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
def test_non_finite_constant_is_rejected(c):
    for check in (check_semiconvex_lines, check_semiconvex_eigen):
        with pytest.raises(ValueError, match="finite"):
            check(H1, horizontal_quadratic(H1), c, box_sampler(H1), 8, seed=1)


def bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


@pytest.mark.parametrize("group", [H1, H2], ids=["H1", "H2"])
def test_batched_cores_match_single_constant_calls(group):
    # One draw scored against every constant gives, for each constant, the
    # report of its own call; -0.9 is the uniform-convexity case.
    constants = (0.0, 0.5, 1.0, 2.0, -0.9)
    sampler = box_sampler(group)
    cores = (
        (_semiconvex_lines, check_semiconvex_lines),
        (_semiconvex_eigen, check_semiconvex_eigen),
    )
    for case in convexity_catalog(group):
        for core, single in cores:
            batch = core(group, case.field, constants, sampler, 24, 3)
            assert len(batch) == len(constants)
            for c, got in zip(constants, batch):
                want = single(group, case.field, c, sampler, 24, seed=3)
                assert (got.constant, got.passed, got.n_checked) == (
                    want.constant, want.passed, want.n_checked
                ), (case.field.name, c)
                assert bits(got.worst_slack) == bits(want.worst_slack)
                assert got.witness.keys() == want.witness.keys()
                for key, value in want.witness.items():
                    assert np.array_equal(bits(got.witness[key]), bits(value)), (key, c)


@pytest.mark.parametrize("core", [_semiconvex_lines, _semiconvex_eigen])
def test_non_finite_constant_anywhere_raises_before_drawing(core):
    def sampler(count, rng):
        raise AssertionError("drew before checking the constants")

    for constants in ((math.nan, 0.0), (0.0, 1.0, math.inf), (0.5, -math.inf, 2.0)):
        with pytest.raises(ValueError, match="finite"):
            core(H1, horizontal_quadratic(H1), constants, sampler, 8, 1)
