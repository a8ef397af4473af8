"""Horizontal calculus: finite differences against frozen symbolic values.

Expected matrices were computed with an independent symbolic route
(explicit vector fields applied by a computer algebra system, evaluated
in exact arithmetic) and are frozen here as literals.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from _oracles import (
    check_field_consistency,
    check_profile_consistency,
    coordinate_product,
    euclid_gradient,
    frame,
    group_multiply,
    horizontal_gradient,
    horizontal_of,
    reference_fd_hessian,
    reference_horizontal_fd,
)
from carnotx import (
    CounterexampleConfig,
    DomainError,
    RadialProfile,
    ScalarField,
    SingularPointError,
    add_horizontal_quadratic,
    constant_field,
    convexity_catalog,
    coordinate_field,
    counterexample_profile,
    field_from_profile,
    gauge_ball_sampler,
    gauge_quartic,
    heisenberg,
    horizontal_hessian_sym,
    radial_hessian,
    sublaplacian,
)
from carnotx.calculus import _horizontal_fd, _radial_eigenvalues
from carnotx.estimates import _quartic_profile
from carnotx.group import _frame_t, _gauge_parts

H1 = heisenberg(1)
H2 = heisenberg(2)


def power_profile(alpha: float) -> RadialProfile:
    """1 - r^alpha with hand derivatives, smooth away from r = 0."""

    def guard(r):
        r = np.asarray(r, dtype=float)
        return np.where(r > 0.0, r, 1.0)

    return RadialProfile(
        name=f"power[{alpha}]",
        psi=lambda r: 1.0 - guard(r) ** alpha,
        psi_prime=lambda r: -alpha * guard(r) ** (alpha - 1.0),
        psi_second=lambda r: alpha * (1.0 - alpha) * guard(r) ** (alpha - 2.0),
        smooth_radii=lambda r: np.asarray(r, dtype=float) > 0.0,
    )


def radial_eigenvalues(group, profile, pts):
    """The closed-form eigenvalue columns of ``radial_hessian`` at points (..., n)."""
    rho, _, g = _gauge_parts(group, pts)
    return _radial_eigenvalues(group.heisenberg_d, profile, rho, g)


def evaluation_only(u: ScalarField) -> ScalarField:
    """Strip analytic callbacks so derivatives must come from stencils."""
    return ScalarField(name=u.name + "/fd", evaluate=u.evaluate, smooth_domain=u.smooth_domain)


class TestFiniteDifferences:
    def test_transcendental_hessian_frozen(self):
        # u = sin(x1) t + x2^2 at (0.4, 0.2, -0.3); symbolic oracle values.
        u = ScalarField(
            name="sin*t",
            evaluate=lambda x: np.sin(x[..., 0]) * x[..., 2] + x[..., 1] ** 2,
        )
        expected = np.array(
            [
                [0.85367429789490321374, -0.73684879520230806624],
                [-0.73684879520230806624, 2.0],
            ]
        )
        got = horizontal_hessian_sym(H1, u, np.array([0.4, 0.2, -0.3]))
        assert np.allclose(got, expected, rtol=1e-9, atol=1e-11)

    def test_coordinate_product_hessian_frozen(self):
        # u = x1 * t: symbolic Hessian [[4 x2, -2 x1], [-2 x1, 0]].
        point = np.array([0.3, -0.5, 0.2])
        expected = np.array([[-2.0, -0.6], [-0.6, 0.0]])
        exact_route = coordinate_product(H1, 1, 3)
        fd_route = evaluation_only(exact_route)
        # With a Hessian callback no stencil runs, so the field is never evaluated.
        callbacks_only = dataclasses.replace(exact_route, evaluate=None)
        assert np.allclose(
            horizontal_hessian_sym(H1, callbacks_only, point), expected, atol=1e-12
        )
        assert np.allclose(
            horizontal_hessian_sym(H1, fd_route, point), expected, atol=1e-9
        )

    def test_sublaplacian_of_quartic_frozen(self):
        # Symbolic oracle: 24 |x_H|^2 on H^1 and 32 |x_H|^2 on H^2.
        u1 = evaluation_only(gauge_quartic(H1))
        x1 = np.array([0.7, -0.3, 0.4])
        assert sublaplacian(H1, u1, x1) == pytest.approx(24.0 * 0.58, rel=1e-9)

        u2 = evaluation_only(gauge_quartic(H2))
        x2 = np.array([0.5, -0.2, 0.3, 0.4, -0.25])
        h2 = 0.25 + 0.04 + 0.09 + 0.16
        assert sublaplacian(H2, u2, x2) == pytest.approx(32.0 * h2, rel=1e-9)

    def test_horizontal_gradient_of_gauge(self):
        # D_X rho has squared length |x_H|^2 / rho^2 <= 1.
        rho_field = ScalarField(
            name="rho", evaluate=lambda x: _gauge_parts(H1, x)[0]
        )
        rng = np.random.default_rng(4)
        for _ in range(10):
            x = rng.uniform(-1.5, 1.5, 3)
            if np.hypot(x[0], x[1]) < 0.2:
                continue
            grad = horizontal_gradient(H1, rho_field, x)
            (a, b, t), h2 = x, x[0] ** 2 + x[1] ** 2
            rho = (h2**2 + t**2) ** 0.25
            eta = np.array([a * h2 + b * t, b * h2 - a * t])
            assert np.allclose(grad, eta / rho**3, atol=1e-9)
            g = float(grad @ grad)
            assert g <= 1.0 + 1e-12
            assert g == pytest.approx(h2 / rho**2, abs=1e-9)
            assert g == pytest.approx(_gauge_parts(H1, x)[2], abs=1e-9)

    def test_left_invariance_of_frame_derivatives(self):
        # The symmetrized horizontal Hessian of u∘L_g at x equals that of u
        # at g x: the frame is left-invariant.
        u = ScalarField(
            name="bump",
            evaluate=lambda x: np.sin(x[..., 0] + 0.5 * x[..., 2]) * np.cos(x[..., 1]),
        )
        g = np.array([0.3, -0.6, 0.8])
        x = np.array([-0.2, 0.4, 0.1])
        composed = ScalarField(
            name="u∘Lg", evaluate=lambda y: u.evaluate(group_multiply(H1, g, y))
        )
        lhs = horizontal_hessian_sym(H1, composed, x)
        rhs = horizontal_hessian_sym(H1, u, group_multiply(H1, g, x))
        assert np.allclose(lhs, rhs, atol=1e-8)
        # Not by accident: the Euclidean Hessians differ.
        moved = reference_fd_hessian(u, group_multiply(H1, g, x))
        assert not np.allclose(reference_fd_hessian(composed, x), moved)


class TestRadialCalculus:
    def test_closed_form_matches_symbolic_frozen_h1(self):
        # Profile 1 - rho^(1/2) at (0.7, -0.3, 0.4); frozen symbolic matrix.
        profile = power_profile(0.5)
        point = np.array([0.7, -0.3, 0.4])
        expected = np.array(
            [
                [-1.0734944809136850889, -0.84484173665104830442],
                [-0.84484173665104830442, -0.26459515017481132341],
            ]
        )
        got = radial_hessian(H1, profile, point)
        assert np.allclose(got.matrix, expected, rtol=1e-13)
        eigs = np.sort(radial_eigenvalues(H1, profile, point))
        assert np.allclose(
            eigs, [-1.6057075573061956, 0.2676179262176993], rtol=1e-12
        )

    def test_closed_form_matches_symbolic_frozen_h2(self):
        # Profile 1 - rho^(3/10) on H^2; the flat eigenvalue is double.
        profile = power_profile(0.3)
        point = np.array([0.5, -0.2, 0.3, 0.4, -0.25])
        expected = np.array(
            [
                [-0.644775450404413, -0.3635148900829502, 0.45832344946857895, -0.14245907639256267],
                [-0.3635148900829502, -0.38241971837380295, -0.0813262640912824, -0.28276587265703734],
                [0.45832344946857895, -0.0813262640912824, -0.2816217821611419, 0.3588123660597748],
                [-0.14245907639256267, -0.28276587265703734, 0.3588123660597748, -0.5110598460295241],
            ]
        )
        got = radial_hessian(H2, profile, point)
        assert np.allclose(got.matrix, expected, rtol=1e-12, atol=1e-14)
        eigs = np.sort(radial_eigenvalues(H2, profile, point))
        frozen = [-1.2696814862573595, -0.4232271620857865, -0.4232271620857865, 0.29625901346005057]
        assert np.allclose(eigs, frozen, rtol=1e-10)
        assert got.flat_multiplicity == 2
        assert got.eigen_flat == pytest.approx(-0.4232271620857865, rel=1e-10)

    def test_quartic_profile_eigenvalues_at_unit_point(self):
        profile = RadialProfile(
            name="r4",
            psi=lambda r: np.asarray(r, dtype=float) ** 4,
            psi_prime=lambda r: 4.0 * np.asarray(r, dtype=float) ** 3,
            psi_second=lambda r: 12.0 * np.asarray(r, dtype=float) ** 2,
        )
        eigs = radial_eigenvalues(H1, profile, np.array([1.0, 0.0, 0.0]))
        assert np.allclose(np.sort(eigs), [12.0, 12.0], rtol=1e-14)
        # the quartic's Hessian on H^1 is 12 |x_H|^2 times the identity
        y = np.array([0.7, -0.3, 0.4])
        got2 = radial_hessian(H1, profile, y)
        assert np.allclose(got2.matrix, (12.0 * 0.58) * np.eye(2), rtol=1e-13)

    def test_batched_eigenvalues_match_single_points(self):
        profile = power_profile(0.5)
        rng = np.random.default_rng(12)
        pts = rng.uniform(-1, 1, (20, 3))
        pts = pts[np.hypot(pts[:, 0], pts[:, 1]) > 0.1]
        batch = radial_eigenvalues(H1, profile, pts)
        for k, x in enumerate(pts):
            single = radial_hessian(H1, profile, x)
            want = [single.eigen_radial, single.eigen_tangential]
            want += [single.eigen_flat] * single.flat_multiplicity
            assert np.allclose(np.sort(batch[k]), np.sort(want), rtol=1e-12)

    @pytest.mark.parametrize("group", [H1, H2], ids=["h1", "h2"])
    def test_one_gauge_gives_the_same_bits_on_every_route(self, group):
        # Both closed-form eigenvalue routes, and single and stacked gauge
        # calls, must agree bit for bit: the gauge is defined once.
        profile = power_profile(0.5)
        pts = np.random.default_rng(31).uniform(-1.0, 1.0, (20000, group.n))
        closed = radial_hessian(group, profile, pts)
        flat = [closed.eigen_flat] * closed.flat_multiplicity
        want = np.stack([closed.eigen_radial, closed.eigen_tangential] + flat, axis=-1)
        got = radial_eigenvalues(group, profile, pts)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        stacked = _gauge_parts(group, pts)[0]
        single = np.array([_gauge_parts(group, x)[0] for x in pts])
        assert np.array_equal(single.view(np.uint64), stacked.view(np.uint64))

    def test_fd_cross_check_of_closed_form(self):
        profile = power_profile(0.5)
        u = field_from_profile(H1, profile)
        rng = np.random.default_rng(8)
        checked = 0
        while checked < 12:
            x = rng.uniform(-1.2, 1.2, 3)
            if np.hypot(x[0], x[1]) < 0.2 or _gauge_parts(H1, x)[0] < 0.3:
                continue
            fd = horizontal_hessian_sym(H1, u, x)
            closed = radial_hessian(H1, profile, x).matrix
            assert np.linalg.norm(fd - closed) <= 1e-6 * np.linalg.norm(closed)
            checked += 1

    def test_singular_points_raise(self):
        profile = power_profile(0.5)
        with pytest.raises(SingularPointError):
            radial_hessian(H1, profile, np.array([0.0, 0.0, 0.5]))
        u = field_from_profile(H1, profile)
        with pytest.raises(DomainError):
            horizontal_hessian_sym(H1, u, np.array([0.0, 0.0, 0.5]))


class TestFieldUtilities:
    def test_add_horizontal_quadratic_exact(self):
        base = gauge_quartic(H1)
        shifted = add_horizontal_quadratic(H1, base, 3.0)
        rng = np.random.default_rng(6)
        x = rng.uniform(-1, 1, (5, 3))
        want = base.evaluate(x) + 1.5 * (x[:, 0] ** 2 + x[:, 1] ** 2)
        assert np.allclose(shifted.evaluate(x), want, rtol=1e-15)
        # horizontal Hessian shifts by exactly 3 I on the horizontal block
        p = np.array([0.3, 0.8, -0.2])
        h_base = horizontal_hessian_sym(H1, base, p)
        h_shift = horizontal_hessian_sym(H1, shifted, p)
        assert np.allclose(h_shift - h_base, 3.0 * np.eye(2), atol=1e-9)

    def test_consistency_checker_accepts_good_callbacks(self):
        # Each closed-form callback, and sums made by add_horizontal_quadratic,
        # against sym(sigma^T D^2u sigma) from the frame and the Euclidean stencil.
        for d in (1, 2, 3):
            group = heisenberg(d)
            pts = np.random.default_rng(3).uniform(-1, 1, (16, group.n))
            fields = [case.field for case in convexity_catalog(group)]
            fields += [
                add_horizontal_quadratic(group, gauge_quartic(group), -2.5),
                coordinate_field(group, group.n),
                constant_field(1.5),
            ]
            for u in fields:
                report = check_field_consistency(group, u, pts)
                assert report["ok"], (d, u.name, report)

    def test_consistency_checker_flags_wrong_hessian(self):
        # x1^2 has horizontal Hessian 2 e1 e1^T; the callback claims 3 e1 e1^T.
        lying = np.diag([3.0, 0.0])
        u = ScalarField(
            name="lying",
            evaluate=lambda x: x[..., 0] ** 2,
            horizontal_hessian=lambda x: np.broadcast_to(lying, x.shape[:-1] + (2, 2)),
        )
        pts = np.random.default_rng(3).uniform(-1, 1, (8, 3))
        report = check_field_consistency(H1, u, pts)
        assert not report["ok"]
        # rho^4's t^2 seen along the frame is 2 tau tau^T; a callback that
        # keeps only the Euclidean horizontal block must fail too.
        for d in (1, 2, 3):
            group = heisenberg(d)
            quartic = gauge_quartic(group)

            def block_only(x, group=group, quartic=quartic):
                tau = _frame_t(group, x)
                return quartic.horizontal_hessian(x) - 2.0 * tau[..., :, None] * tau[..., None, :]

            bad = dataclasses.replace(quartic, horizontal_hessian=block_only)
            pts = np.random.default_rng(3).uniform(-1, 1, (16, group.n))
            assert not check_field_consistency(group, bad, pts)["ok"], d

    @pytest.mark.parametrize("d", [1, 2])
    def test_hessian_sym_returns_the_callback_bits(self, d):
        # No frame and no product: the callback's output, bit for bit.
        group = heisenberg(d)
        pts = np.random.default_rng(80 + d).uniform(-1, 1, (5, 3, group.n))
        for case in convexity_catalog(group):
            want = np.asarray(case.field.horizontal_hessian(pts), dtype=float)
            got = horizontal_hessian_sym(group, case.field, pts)
            assert got.shape == (5, 3, group.m, group.m)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), case.field.name

    def test_profile_consistency(self):
        radii = np.linspace(0.2, 1.8, 16)
        assert check_profile_consistency(power_profile(0.5), radii)["ok"]
        bad = RadialProfile(
            name="skew",
            psi=lambda r: np.asarray(r, dtype=float) ** 2,
            psi_prime=lambda r: 3.0 * np.asarray(r, dtype=float),
            psi_second=lambda r: np.full_like(np.asarray(r, dtype=float), 2.0),
        )
        assert not check_profile_consistency(bad, radii)["ok"]
        with pytest.raises(ValueError, match=r"power\[0\.5\]"):
            check_profile_consistency(power_profile(0.5), -radii)


def carnot_frame_hessian_sym(group, u, x):
    """The general Carnot-frame formula sym(sigma^T D^2u sigma + sym(T)).

    T_ij = sum_{l,k} sigma_li (d_l sigma_kj) (d_k u) takes the exact
    partials of the frame from the Jacobian table of H^d built here, and
    D^2u and Du come from differences of ``u.evaluate``.
    """
    d, n, m = group.heisenberg_d, group.n, group.m
    jac = np.zeros((n, n, m))  # [l, k, j] = d sigma_kj / d x_l
    for i in range(d):
        jac[i + d, n - 1, i] = 2.0
        jac[i, n - 1, i + d] = -2.0
    grad = euclid_gradient(u, x)
    hess = reference_fd_hessian(u, x)
    sigma = frame(group, x)
    jac = np.broadcast_to(jac, x.shape[:-1] + (n, n, m))
    main = np.swapaxes(sigma, -1, -2) @ hess @ sigma
    first = np.einsum("...li,...lkj,...k->...ij", sigma, jac, grad)
    out = main + 0.5 * (first + np.swapaxes(first, -1, -2))
    return 0.5 * (out + np.swapaxes(out, -1, -2))


@pytest.mark.parametrize("group", [H1, H2], ids=["h1", "h2"])
def test_hessian_sym_equals_carnot_frame_formula(group):
    # On H^d the symmetrized first-order term is zero, so the callbacks and
    # the stencil, which leave it out and never form D^2u, agree with the
    # general formula built on the Euclidean stencil.
    eps = 2.0**-3
    cfg = CounterexampleConfig(d=group.heisenberg_d, alpha=0.5, eps_list=(eps,), q_list=(2.0,))
    fields = [case.field for case in convexity_catalog(group)]
    fields.append(field_from_profile(group, counterexample_profile(cfg, eps)))
    sampler = gauge_ball_sampler(
        group, rho_max=0.95, rho_min=0.05, min_horizontal=0.01, exclude_shells=[(eps, 0.01)]
    )
    pts = sampler(2000, np.random.default_rng(17))
    for u in fields:
        got, want = horizontal_hessian_sym(group, u, pts), carnot_frame_hessian_sym(group, u, pts)
        assert np.allclose(got, want, rtol=1e-7, atol=1e-7), u.name


@pytest.mark.parametrize("group", [H1, H2], ids=["h1", "h2"])
@pytest.mark.parametrize("branch", ["callback", "stencil"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
def test_non_finite_points_raise(group, branch, bad):
    u = gauge_quartic(group)
    if branch == "stencil":
        u = evaluation_only(u)
    pts = np.full((3, group.n), 0.25)
    pts[1, 0] = pts[2, -1] = bad
    with pytest.raises(ValueError, match=r"point array\(\[ *-?(nan|inf), 0\.25") as info:
        horizontal_hessian_sym(group, u, pts)
    assert "not finite" in str(info.value)
    with pytest.raises(ValueError, match="not finite"):
        horizontal_hessian_sym(group, u, pts[2])


def recording(u: ScalarField, calls: list, contiguous: bool) -> ScalarField:
    """u without callbacks, recording a copy of each stack ``evaluate`` receives."""

    def evaluate(pts):
        calls.append(np.array(pts))
        return u.evaluate(np.ascontiguousarray(pts) if contiguous else pts)

    return ScalarField(name=u.name, evaluate=evaluate)


def distinct_rows(pts: np.ndarray) -> np.ndarray:
    """The bit patterns of the rows of pts, each distinct one once, sorted."""
    row = np.dtype((np.void, pts.itemsize * pts.shape[-1]))
    return np.unique(np.ascontiguousarray(pts).view(row))


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("shape", [(1,), (15,), (16,), (17,), (200,), (2, 3), (32,), (33,)])
def test_stencil_points_and_hessians_keep_their_bits(d, shape):
    # The stencil evaluates each distinct point of the reference's stencil
    # once, and its Hessians keep the reference's bits.  A coordinate -0.0
    # checks that every point keeps the sign of zero the reference gives it.
    group = heisenberg(d)
    sampler = gauge_ball_sampler(group, rho_max=0.95, rho_min=0.05, min_horizontal=0.01)
    x = sampler(int(np.prod(shape)), np.random.default_rng(7)).reshape(shape + (group.n,))
    x.reshape(-1, group.n)[0, 0] = -0.0
    fields = [gauge_quartic(group), field_from_profile(group, power_profile(0.5))]
    fields += [case.field for case in convexity_catalog(group)]
    for u in fields:
        seen, copied, every = [], [], []
        got = _horizontal_fd(group, recording(u, seen, contiguous=False), x)
        ref = _horizontal_fd(group, recording(u, copied, contiguous=True), x)
        want = reference_horizontal_fd(group, recording(u, every, contiguous=False), x)
        assert got.shape == x.shape[:-1] + (group.m, group.m)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), u.name
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64)), u.name
    # The points do not depend on the field: check the last one's.  Each
    # point has 6 m^2 + 1 distinct rows of the reference's 10 m^2.
    (full,) = every
    full = full.reshape(-1, 10 * group.m**2, group.n)
    pts = np.concatenate(seen).reshape(len(full), -1, group.n)
    assert pts.shape[1] == 6 * group.m**2 + 1
    for mine, theirs in zip(pts, full):
        assert len(mine) == len(distinct_rows(mine))
        assert np.array_equal(distinct_rows(mine), distinct_rows(theirs))


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize(
    "profile",
    [power_profile(0.5), _quartic_profile(), None],
    ids=["power", "quartic", "splice"],
)
def test_stencil_agrees_with_the_euclidean_route(d, profile):
    # Differences along the frame against sigma^T D^2u sigma from the
    # Euclidean stencil: two independent routes to one matrix.
    group = heisenberg(d)
    if profile is None:
        cfg = CounterexampleConfig(d=d, alpha=0.5, eps_list=(0.25,), q_list=(2.0,))
        profile = counterexample_profile(cfg, 0.25)
    sampler = gauge_ball_sampler(
        group, rho_max=0.95, rho_min=0.05, min_horizontal=0.01, exclude_shells=[(0.25, 0.05)]
    )
    pts = sampler(100, np.random.default_rng(40 + d))
    u = field_from_profile(group, profile)
    euclid = horizontal_of(group, reference_fd_hessian(u, pts), pts)
    got = horizontal_hessian_sym(group, u, pts)
    exact = radial_hessian(group, profile, pts).matrix
    scale = np.max(np.abs(exact), axis=(-2, -1), keepdims=True)
    assert np.all(np.abs(got - euclid) <= 1e-7 * np.maximum(scale, 1.0))


def stacked_profile(*profiles: RadialProfile) -> RadialProfile:
    """The profiles as one whose psi, psi' and psi'' carry them on a leading axis."""

    def stacked(attr):
        return lambda r: np.stack([getattr(p, attr)(r) for p in profiles])

    return RadialProfile("stacked", stacked("psi"), stacked("psi_prime"), stacked("psi_second"))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_radial_hessian_is_exactly_symmetric(d):
    # Each entry is a sum of commuting products, so M equals M^T bit for bit,
    # for one profile and for profiles stacked on a leading axis.
    group = heisenberg(d)
    pts = np.random.default_rng(60 + d).uniform(-1.0, 1.0, (500, group.n))
    profiles = (power_profile(0.5), _quartic_profile(), power_profile(-3.0))
    for profile in profiles + (stacked_profile(*profiles),):
        mat = radial_hessian(group, profile, pts).matrix
        assert np.array_equal(mat.view(np.uint64), np.swapaxes(mat, -1, -2).view(np.uint64))
    assert mat.shape == (3, 500, group.m, group.m)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_radial_hessian_eigenvectors_are_the_gradient_and_its_rotation(d):
    # v = grad_H rho from the oracle frame and the Euclidean gradient of rho,
    # (|x_H|^2 x_H, t / 2) / rho^3, and w = J v: M v = radial v, M w =
    # tangential w, and |v|^2 is |D rho|^2 to a few ulp (8 at most here, as
    # rho is within an ulp and enters cubed and squared).
    group, m = heisenberg(d), 2 * d
    pts = np.random.default_rng(70 + d).uniform(-1.0, 1.0, (500, group.n))
    rho, h2, g = _gauge_parts(group, pts)
    euclid = np.concatenate([h2[:, None] * pts[:, :m], pts[:, -1:] / 2.0], axis=-1)
    v = np.einsum("...km,...k->...m", frame(group, pts), euclid / rho[:, None] ** 3)
    w = np.concatenate([v[:, d:], -v[:, :d]], axis=-1)
    assert np.all(np.abs(np.sum(v * v, axis=-1) - g) <= 16.0 * np.spacing(g))
    for profile in (power_profile(0.5), _quartic_profile(), power_profile(-3.0)):
        closed = radial_hessian(group, profile, pts)
        scale = np.linalg.norm(closed.matrix, axis=(-2, -1)) * np.sqrt(g)
        for vec, eigen in ((v, closed.eigen_radial), (w, closed.eigen_tangential)):
            residual = (closed.matrix @ vec[..., None])[..., 0] - eigen[:, None] * vec
            assert np.all(np.linalg.norm(residual, axis=-1) <= 1e-13 * scale), profile.name


@pytest.mark.parametrize("count", [64, 4096])
@pytest.mark.parametrize("d", [1, 2, 3], ids=["h1", "h2", "h3"])
def test_stencil_memory_stays_at_one_chunk(d, count):
    # A pass holds _FD_ROWS stencil rows whatever the group: its points
    # shrink as m grows, so its memory stays under one bound on every H^d.
    group = heisenberg(d)
    u = evaluation_only(gauge_quartic(group))
    x = np.random.default_rng(3).uniform(-0.5, 0.5, (count, group.n))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = _horizontal_fd(group, u, x)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak - out.nbytes < 1 << 20
