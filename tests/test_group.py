"""Group layer: descriptors and the gauge, checked with the law and the dilations."""

import mpmath
import numpy as np
import pytest

from _oracles import (
    check_field_consistency,
    coordinate_product,
    dilate,
    frame,
    group_multiply,
    horizontal_gradient,
    horizontal_of,
)
from carnotx import (
    CounterexampleConfig,
    GroupDescriptor,
    add_horizontal_quadratic,
    check_semiconvex_eigen,
    check_semiconvex_lines,
    constant_field,
    coordinate_field,
    counterexample_rhs_field,
    field_from_profile,
    gauge_quartic,
    heisenberg,
    horizontal_hessian_sym,
    horizontal_quadratic,
    integrate_xline,
    radial_hessian,
    saddle_field,
    sublaplacian,
)
from carnotx.estimates import power_profile
from carnotx.group import _frame_t, _gauge, _gauge_fourth, _gauge_parts, _row_sums


class TestDescriptor:
    def test_heisenberg_shapes(self):
        for d, n, q in [(1, 3, 4), (2, 5, 6), (3, 7, 8)]:
            G = heisenberg(d)
            assert G.n == n
            assert G.m == 2 * d
            assert G.homogeneous_dimension == q
            assert G.dilation_weights == (1,) * (2 * d) + (2,)
            assert G == GroupDescriptor(d) == heisenberg(np.int64(d))

    def test_heisenberg_rejects_bad_d(self):
        for bad in (0, -1, 1.5, True, None):
            with pytest.raises(ValueError):
                heisenberg(bad)
            with pytest.raises(ValueError):
                GroupDescriptor(bad)

    def test_frame_matrix_values(self):
        G = heisenberg(1)
        x = np.array([0.3, -0.7, 0.2])
        assert np.allclose(frame(G, x), [[1.0, 0.0], [0.0, 1.0], [-1.4, -0.6]])
        assert np.array_equal(_frame_t(G, x), [-1.4, -0.6])

    def test_frame_is_derivative_of_right_translation(self):
        # Column j of sigma(x) is d/ds of x * (s e_j) at s = 0, and the
        # package's t row is the oracle frame's last row, bit for bit.
        for d in (1, 2, 3):
            G = heisenberg(d)
            xs = np.random.default_rng(7).uniform(-1, 1, (4, G.n))
            xs[0, 0] = -0.0
            tau = _frame_t(G, xs)
            assert tau.shape == (4, G.m)
            assert np.array_equal(tau.view(np.uint64), frame(G, xs)[:, -1].view(np.uint64))
            s = 1e-6
            for x, row in zip(xs, tau):
                for j in range(G.m):
                    e = np.zeros(G.n)
                    e[j] = 1.0
                    col = (group_multiply(G, x, s * e) - group_multiply(G, x, -s * e)) / (2 * s)
                    assert np.allclose(col, frame(G, x)[:, j], atol=1e-9)
                    assert col[-1] == pytest.approx(row[j], abs=1e-9)


class TestLaw:
    def test_frozen_product(self):
        G = heisenberg(1)
        out = group_multiply(G, np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]))
        assert np.array_equal(out, [1.0, 1.0, -2.0])

    def test_identity_and_inverse(self):
        G = heisenberg(2)
        rng = np.random.default_rng(3)
        x = rng.uniform(-2, 2, (5, G.n))
        zero = np.zeros(G.n)
        assert np.allclose(group_multiply(G, x, zero), x)
        assert np.allclose(group_multiply(G, zero, x), x)
        assert np.allclose(group_multiply(G, x, -x), 0.0)
        assert np.allclose(group_multiply(G, -x, x), 0.0)

    def test_associativity(self):
        G = heisenberg(2)
        rng = np.random.default_rng(11)
        x, y, z = rng.uniform(-1.5, 1.5, (3, G.n))
        left = group_multiply(G, group_multiply(G, x, y), z)
        right = group_multiply(G, x, group_multiply(G, y, z))
        assert np.allclose(left, right, atol=1e-14)

    def test_noncommutative(self):
        G = heisenberg(1)
        x = np.array([1.0, 0.0, 0.0])
        y = np.array([0.0, 1.0, 0.0])
        assert not np.allclose(group_multiply(G, x, y), group_multiply(G, y, x))


class TestDilationsAndGauge:
    def test_dilation_weights(self):
        G = heisenberg(1)
        out = dilate(G, 3.0, np.array([1.0, -2.0, 5.0]))
        assert np.allclose(out, [3.0, -6.0, 45.0])

    def test_dilation_is_homomorphism(self):
        G = heisenberg(2)
        rng = np.random.default_rng(5)
        x, y = rng.uniform(-1, 1, (2, G.n))
        lam = 1.7
        a = dilate(G, lam, group_multiply(G, x, y))
        b = group_multiply(G, dilate(G, lam, x), dilate(G, lam, y))
        assert np.allclose(a, b, atol=1e-14)

    def test_dilation_rejects_nonpositive(self):
        G = heisenberg(1)
        for lam in (0.0, -1.0):
            with pytest.raises(ValueError):
                dilate(G, lam, np.zeros(3))

    def test_gauge_values_and_homogeneity(self):
        G = heisenberg(1)
        assert _gauge_parts(G, np.array([1.0, 0.0, 0.0]))[0] == 1.0
        assert _gauge_parts(G, np.array([0.0, 0.0, 4.0]))[0] == 2.0
        rng = np.random.default_rng(2)
        x = rng.uniform(-2, 2, (7, G.n))
        lam = 0.37
        assert np.allclose(
            _gauge_parts(G, dilate(G, lam, x))[0],
            lam * _gauge_parts(G, x)[0],
            rtol=1e-14,
        )

    def test_gauge_symmetric_under_inverse(self):
        G = heisenberg(2)
        rng = np.random.default_rng(9)
        x = rng.uniform(-1, 1, (4, G.n))
        assert np.allclose(_gauge_parts(G, -x)[0], _gauge_parts(G, x)[0])


def _bits(a) -> np.ndarray:
    return np.asarray(a, dtype=float).view(np.uint64)


@pytest.mark.parametrize("d", range(1, 10))
def test_gauge_parts_bits_match_row_sum(d):
    """The column sum gives the bits of np.sum's row reduce, on both sides of 8 terms.

    rho is defined as two square roots of rho^4, and |D rho|^2 by the masked
    divide, whose bits the plain divide of a stack without the origin keeps.
    """
    G = heisenberg(d)
    rng = np.random.default_rng(100 + d)
    x = rng.uniform(-1.0, 1.0, (200000, G.n)) * rng.uniform(1e-3, 1e3, G.n)
    x[0] = 0.0  # the origin
    x[1:64, : 2 * d] = 0.0  # the vertical axis
    h2 = np.sum(x[..., : 2 * d] ** 2, axis=-1)
    rho = np.sqrt(np.sqrt(h2**2 + x[..., -1] ** 2))
    g = np.divide(h2, rho**2, out=np.zeros_like(h2), where=rho > 0.0)
    for want, got in zip((rho, h2, g), _gauge_parts(G, x)):
        assert np.array_equal(_bits(got), _bits(want))
    for want, got in zip((rho, h2, g), _gauge_parts(G, x[1:])):
        assert np.array_equal(_bits(got), _bits(want[1:]))
    for want, got in zip((rho, h2, g), _gauge_parts(G, x[200])):
        assert _bits(got) == _bits(want[200])


@pytest.mark.parametrize("d", [1, 3])
def test_gauge_root_is_within_an_ulp_of_mpmath(d):
    """rho is within 1 ulp of the exact fourth root of rho^4, subnormal rho^4 included.

    Points are dilated by 10^-80 to 10^75, so rho^4 runs from subnormal to
    about 1e300; each single point gets the bits of the stack.
    """
    G = heisenberg(d)
    rng = np.random.default_rng(40 + d)
    scale = 10.0 ** rng.uniform(-80.0, 75.0, 3000)
    x = rng.uniform(-1.0, 1.0, (3000, G.n)) * scale[:, None] ** np.array(G.dilation_weights)
    x[:20, : 2 * d] = 0.0  # the vertical axis, where rho^4 = t^2
    rho4 = _gauge_fourth(G, x)[0]
    assert np.count_nonzero(rho4 < np.finfo(float).tiny) > 0 and 1e290 < rho4.max() < np.inf
    rho = _gauge(G, x)[0]
    with mpmath.workdps(40):
        for i in range(len(x)):
            exact = mpmath.root(mpmath.mpf(float(rho4[i])), 4)
            assert abs(mpmath.mpf(float(rho[i])) - exact) <= np.spacing(rho[i]), i
    for i in rng.choice(len(x), 50, replace=False):
        assert _bits(_gauge(G, x[i])[0]) == _bits(rho[i])


@pytest.mark.parametrize("k", [*range(0, 10), 128, 129, 200])
def test_row_sums_have_the_bits_of_np_sum(k):
    """Every term and buffer option gives np.sum's bits, -0 rows summing to +0 as there.

    Past 128 terms numpy sums a row in blocks, so k = 129 and 200 catch a
    copy of its order that holds only within one block.
    """
    rng = np.random.default_rng(70 + k)
    x = rng.standard_normal((3000, k + 2)) * 10.0 ** rng.uniform(-8, 8, (3000, k + 2))
    x[rng.random(x.shape) < 0.3] = -0.0
    x[0], x[1] = -0.0, 0.0
    terms = {
        "identity": lambda col, out=None: np.positive(col, out=out),
        "square": np.square,
        "negative part": lambda col, out=None: np.minimum(col, 0.0, out=out),
    }
    for name, term in terms.items():
        want = np.sum(term(x[:, :k]), axis=-1)
        out, scratch = np.empty(3000), np.empty(3000)
        for got in (_row_sums(x, k, term), _row_sums(x, k, term, out=out, scratch=scratch)):
            assert np.array_equal(_bits(got), _bits(want)), name
        assert _row_sums(x, k, term, out=out) is out
    # Squares are never -0, so their sums need no closing +0.
    got = _row_sums(x, k, np.square, negative_zeros=False)
    assert np.array_equal(_bits(got), _bits(np.sum(np.square(x[:, :k]), axis=-1)))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_negative_zero_coordinates_give_positive_zero_horizontal_norm(d):
    # |x_H|^2 skips the closing +0 of a row sum: a -0 coordinate squares to +0.
    G = heisenberg(d)
    x = np.zeros((4, G.n))
    x[0, : G.m] = -0.0
    x[1, 0] = -0.0
    x[2, G.m - 1], x[2, -1] = -0.0, -0.0
    x[3, : G.m], x[3, -1] = -0.0, 0.5
    rho4, h2 = _gauge_fourth(G, x)
    assert np.array_equal(_bits(h2), _bits(np.zeros(4)))
    assert np.array_equal(_bits(h2), _bits(np.sum(np.square(x[:, : G.m]), axis=-1)))
    assert np.array_equal(_bits(rho4[:3]), _bits(np.zeros(3)))


def test_gauge_sums_130_horizontal_squares_like_np_sum():
    """On H^65, |x_H|^2 is a row sum of 130 squares, past numpy's 128-term block."""
    G = heisenberg(65)
    rng = np.random.default_rng(65)
    x = rng.standard_normal((2000, G.n)) * 10.0 ** rng.uniform(-8, 8, (2000, G.n))
    want = np.sum(np.square(x[:, :130]), axis=-1)
    assert np.array_equal(_bits(_gauge_fourth(G, x)[1]), _bits(want))


@pytest.mark.parametrize("d", [1, 2, 65])
def test_single_point_gauge_fourth_has_the_bits_of_its_row(d):
    G = heisenberg(d)
    x = np.random.default_rng(d).standard_normal((5, G.n)) * 3.0
    rows = np.array(_gauge_fourth(G, x))
    for i, point in enumerate(x):
        single = _gauge_fourth(G, point)
        assert all(np.shape(part) == () for part in single)
        assert np.array_equal(_bits(single), _bits(rows[:, i]))
        # out, of shape (3,) for a single point, receives the same bits.
        out = np.full(3, np.nan)
        _gauge_fourth(G, point, out=out)
        assert np.array_equal(_bits(out[:2]), _bits(rows[:, i]))


_PROFILE = power_profile(0.5)


def _sampler_of(x):
    """A sampler that hands the checkers rows of x's length."""
    return lambda k, rng: np.broadcast_to(x, (k, x.shape[-1]))

# Every function, public or test oracle, that takes points of the group, as
# f(group, x).
POINT_TAKERS = {
    "_gauge": _gauge,
    "_gauge_fourth": _gauge_fourth,
    "_gauge_parts": _gauge_parts,
    "_frame_t": _frame_t,
    "frame": frame,
    "horizontal_of": lambda G, x: horizontal_of(G, np.zeros((G.n, G.n)), x),
    "dilate": lambda G, x: dilate(G, 2.0, x),
    "group_multiply_left": lambda G, x: group_multiply(G, x, np.zeros(G.n)),
    "group_multiply_right": lambda G, x: group_multiply(G, np.zeros(G.n), x),
    "horizontal_gradient": lambda G, x: horizontal_gradient(G, constant_field(1.0), x),
    "horizontal_hessian_sym": lambda G, x: horizontal_hessian_sym(G, constant_field(1.0), x),
    # field_from_profile has no Hessian callback, so this is the stencil path.
    "horizontal_hessian_sym_stencil": lambda G, x: horizontal_hessian_sym(
        G, field_from_profile(G, _PROFILE), x
    ),
    "sublaplacian": lambda G, x: sublaplacian(G, constant_field(1.0), x),
    "radial_hessian": lambda G, x: radial_hessian(G, _PROFILE, x),
    "field_from_profile": lambda G, x: field_from_profile(G, _PROFILE).evaluate(x),
    "field_from_profile.in_domain": lambda G, x: field_from_profile(G, _PROFILE).in_domain(x),
    "counterexample_rhs_field": lambda G, x: counterexample_rhs_field(
        CounterexampleConfig(G.heisenberg_d, 0.5, (0.5,), (2.0,)), 0.5
    ).evaluate(x),
    "check_semiconvex_eigen": lambda G, x: check_semiconvex_eigen(
        G, horizontal_quadratic(G), 1.0, _sampler_of(x), 4, 1
    ),
    "check_semiconvex_lines": lambda G, x: check_semiconvex_lines(
        G, horizontal_quadratic(G), 1.0, _sampler_of(x), 4, 1
    ),
    "integrate_xline": lambda G, x: integrate_xline(G, x, np.ones(G.m), 0.5),
    "check_field_consistency": lambda G, x: check_field_consistency(
        G, horizontal_quadratic(G), x
    ),
}
# Every callback of every group-bound catalog field takes points too. The
# Hessian callback's id is ".hessian", short enough that "n-1" and "n+2" stay
# apart in the first 100 characters of a test id.
_CATALOG_FIELDS = {
    "coordinate_field": lambda G: coordinate_field(G, 1),
    "horizontal_quadratic": horizontal_quadratic,
    "saddle_field": saddle_field,
    "gauge_quartic": gauge_quartic,
    "coordinate_product": lambda G: coordinate_product(G, 1, 2),
    "add_horizontal_quadratic": lambda G: add_horizontal_quadratic(G, constant_field(0.0), 1.0),
}
for _name, _make in _CATALOG_FIELDS.items():
    for _label, _callback in (("evaluate", "evaluate"), ("hessian", "horizontal_hessian")):
        POINT_TAKERS[f"{_name}.{_label}"] = (
            lambda G, x, make=_make, cb=_callback: getattr(make(G), cb)(x)
        )


@pytest.mark.parametrize("extra", [-1, 2], ids=["n-1", "n+2"])
@pytest.mark.parametrize("name", sorted(POINT_TAKERS))
@pytest.mark.parametrize("d", [1, 2])
def test_points_of_the_wrong_length_are_rejected(d, name, extra):
    G = heisenberg(d)
    for x in (np.full(G.n + extra, 0.5), np.full((4, G.n + extra), 0.5)):
        with pytest.raises(ValueError, match=f"expected points of length {G.n}"):
            POINT_TAKERS[name](G, x)
