"""Extremal operators: frozen values, algebraic laws, and the sampled sup."""

import dataclasses
import math
import threading
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest

from _oracles import reference_sampled_sups
from carnotx import (
    Ellipticity,
    isaacs_gap,
    pucci_minus,
    pucci_minus_of_eigenvalues,
    pucci_oracle_check,
    pucci_plus,
    pucci_plus_of_eigenvalues,
    sym_eigenvalues,
)
from carnotx.cli import run
from carnotx.pucci import PucciFormulaCheck, pucci_formula_check

E13 = Ellipticity(lam=1.0, Lam=3.0)


def random_sym(rng, k):
    a = rng.standard_normal((k, k))
    return 0.5 * (a + a.T)


class TestEigensolver:
    def test_against_mpmath_oracle(self):
        rng = np.random.default_rng(17)
        with mpmath.workdps(30):
            for _ in range(200):
                k = int(rng.integers(1, 7))
                mat = random_sym(rng, k) * float(rng.uniform(0.1, 50.0))
                exact = mpmath.eigsy(mpmath.matrix(mat.tolist()), eigvals_only=True)
                want = sorted(float(x) for x in exact)
                scale = max(1.0, float(np.linalg.norm(mat)))
                assert np.allclose(sym_eigenvalues(mat), want, atol=1e-12 * scale)

    def test_rejects_nonsymmetric_and_nonsquare(self):
        with pytest.raises(ValueError):
            sym_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError):
            sym_eigenvalues(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            sym_eigenvalues(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_non_convergence_is_a_usage_error(self, monkeypatch, tmp_path, capsys):
        def unconverged(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", unconverged)
        out = tmp_path / "report.json"
        assert run(["pucci", "--count", "2", "--samples", "8", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "did not converge" in err
        assert not out.exists()

    def test_eigvalsh_non_convergence_is_a_usage_error(self, monkeypatch, capsys):
        def unconverged(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", unconverged)
        assert run(["pointwise-bound", "--count", "8"]) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "did not converge" in err

    def test_concurrent_calls_have_the_bits_of_one_call(self):
        # The sweep's pool runs LAPACK from several threads at once.
        raw = np.random.default_rng(18).standard_normal((2000, 4, 4))
        mats = 0.5 * (raw + np.swapaxes(raw, -1, -2))
        want = sym_eigenvalues(mats)
        start = threading.Barrier(8)

        def call(_):
            start.wait()
            return sym_eigenvalues(mats)

        with ThreadPoolExecutor(8) as pool:
            for got in pool.map(call, range(8)):
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_diagonal_and_identity(self):
        assert np.allclose(sym_eigenvalues(np.diag([3.0, -1.0, 2.0])), [-1.0, 2.0, 3.0])
        assert np.allclose(sym_eigenvalues(np.eye(4) * 2.5), 2.5)


class TestFormulas:
    def test_frozen_values(self):
        assert pucci_plus(np.diag([2.0, -1.0]), E13) == pytest.approx(5.0, abs=1e-14)
        assert pucci_minus(np.diag([2.0, -1.0]), E13) == pytest.approx(-1.0, abs=1e-14)
        assert pucci_plus(np.diag([5.0, 0.0, -2.0]), E13) == pytest.approx(13.0, abs=1e-14)
        assert pucci_minus(np.diag([5.0, 0.0, -2.0]), E13) == pytest.approx(-1.0, abs=1e-14)
        assert pucci_plus(np.zeros((3, 3)), E13) == 0.0
        assert pucci_minus(np.zeros((3, 3)), E13) == 0.0

    def test_degenerate_window_is_scaled_trace(self):
        e = Ellipticity(lam=2.0, Lam=2.0)
        rng = np.random.default_rng(1)
        mat = random_sym(rng, 4)
        assert pucci_plus(mat, e) == pytest.approx(2.0 * np.trace(mat), abs=1e-12)
        assert pucci_minus(mat, e) == pytest.approx(2.0 * np.trace(mat), abs=1e-12)

    def test_duality(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            mat = random_sym(rng, int(rng.integers(2, 6)))
            assert pucci_minus(mat, E13) == pytest.approx(
                -pucci_plus(-mat, E13), abs=1e-12
            )

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(3)
        mat = random_sym(rng, 5)
        for s in (0.5, 2.0, 7.3):
            assert pucci_plus(s * mat, E13) == pytest.approx(
                s * pucci_plus(mat, E13), rel=1e-13
            )

    def test_superadditive_plus_subadditive_minus(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            k = int(rng.integers(2, 6))
            a, b = random_sym(rng, k), random_sym(rng, k)
            assert pucci_plus(a + b, E13) <= pucci_plus(a, E13) + pucci_plus(b, E13) + 1e-11
            assert pucci_minus(a + b, E13) >= pucci_minus(a, E13) + pucci_minus(b, E13) - 1e-11

    def test_sandwich_and_monotonicity(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            k = int(rng.integers(2, 6))
            mat = random_sym(rng, k)
            assert pucci_minus(mat, E13) <= pucci_plus(mat, E13) + 1e-13
            bump = rng.standard_normal((k, k))
            psd = bump @ bump.T
            assert pucci_plus(mat + psd, E13) >= pucci_plus(mat, E13) - 1e-11

    def test_vectorized_eigenvalue_forms(self):
        eigs = np.array([[2.0, -1.0], [5.0, -2.0]])
        assert np.allclose(pucci_plus_of_eigenvalues(eigs, E13), [5.0, 13.0])
        assert np.allclose(pucci_minus_of_eigenvalues(eigs, E13), [-1.0, -1.0])

    @pytest.mark.parametrize("k", [*range(1, 10), 129])
    def test_eigenvalue_forms_have_the_bits_of_row_sums(self, k):
        # The sums against np.sum(axis=-1), on both sides of 8 terms and
        # past numpy's 128-term block: signed zeros, rows of zeros of
        # either sign, and magnitudes whose sums depend on the order.
        rng = np.random.default_rng(40 + k)
        eigs = rng.standard_normal((5000, k)) * 10.0 ** rng.uniform(-8, 8, (5000, k))
        eigs[rng.random((5000, k)) < 0.2] = 0.0
        eigs[rng.random((5000, k)) < 0.2] = -0.0
        eigs[:3] = [[0.0] * k, [-0.0] * k, [(-1.0) ** j * 0.0 for j in range(k)]]
        e = Ellipticity(lam=0.3, Lam=1.7)
        pos = np.sum(np.maximum(eigs, 0.0), axis=-1)
        neg = np.sum(np.minimum(eigs, 0.0), axis=-1)
        for got, want in (
            (pucci_plus_of_eigenvalues(eigs, e), e.Lam * pos + e.lam * neg),
            (pucci_minus_of_eigenvalues(eigs, e), e.lam * pos + e.Lam * neg),
        ):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        # A single eigenvalue row is the one-row case of the stack.
        one = np.array([pucci_plus_of_eigenvalues(row, e) for row in eigs[:50]])
        stacked = pucci_plus_of_eigenvalues(eigs[:50], e)
        assert np.array_equal(one.view(np.uint64), stacked.view(np.uint64))

    def test_ellipticity_validation(self):
        with pytest.raises(ValueError):
            Ellipticity(lam=0.0, Lam=1.0)
        with pytest.raises(ValueError):
            Ellipticity(lam=2.0, Lam=1.0)
        with pytest.raises(ValueError):
            Ellipticity(lam=-1.0, Lam=1.0)
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError):
                Ellipticity(lam=1.0, Lam=bad)


class TestOracle:
    def test_sampled_sup_never_beats_formula(self):
        rng = np.random.default_rng(6)
        for i in range(10):
            mat = random_sym(rng, 4) * float(rng.uniform(0.5, 5.0))
            oracle_sup, formula, attained = pucci_oracle_check(
                mat, E13, n_samples=2000, seed=100 + i
            )
            scale = max(1.0, float(np.linalg.norm(mat)))
            assert oracle_sup <= formula + 1e-12 * scale
            assert attained
        # The formula check's verdict is a property, so its written report has no "passed" key.
        assert "passed" not in {f.name for f in dataclasses.fields(PucciFormulaCheck)}

    def test_oracle_requires_samples(self):
        with pytest.raises(ValueError):
            pucci_oracle_check(np.eye(2), E13, n_samples=0, seed=0)

    @pytest.mark.parametrize("n_samples", [1, 4097])  # 4097: two sample chunks
    @pytest.mark.parametrize("m", [1, 2, 6])
    def test_stack_matches_single_calls(self, m, n_samples):
        # Stacks of 1, B - 1, B, B + 1 and 2B + 3 matrices end inside, on and
        # past the blocks of B matrices that the oracle scores together.
        from carnotx.pucci import _BLOCK as B

        rng = np.random.default_rng(m)
        mats = np.array([random_sym(rng, m) for _ in range(2 * B + 3)])
        singles = [pucci_oracle_check(mat, E13, n_samples, seed=11) for mat in mats]
        want_sup, want_formula, want_attained = (np.array(x) for x in zip(*singles))
        for count in (1, B - 1, B, B + 1, 2 * B + 3):
            stack = mats[:count].reshape(1, count, m, m)
            sup, formula, attained = pucci_oracle_check(stack, E13, n_samples, seed=11)
            assert sup.shape == formula.shape == attained.shape == (1, count)
            assert np.array_equal(sup[0].view(np.uint64), want_sup[:count].view(np.uint64))
            assert np.array_equal(formula[0].view(np.uint64), want_formula[:count].view(np.uint64))
            assert np.array_equal(attained[0], want_attained[:count]) and attained.all()

    @pytest.mark.parametrize("window", [(1.0, 3.0), (1e-3, 1e3)])
    @pytest.mark.parametrize("m", range(1, 7))
    def test_formula_agrees_with_pucci_plus(self, m, window):
        # Two eigen routes: the oracle's formula reads eigh, pucci_plus reads
        # eigvalsh, whose last bits may differ; zero and rank-one matrices too.
        e = Ellipticity(*window)
        rng = np.random.default_rng(30 + m)
        raw = rng.standard_normal((300, m, m)) * rng.uniform(1e-3, 1e3, (300, 1, 1))
        mats = 0.5 * (raw + np.swapaxes(raw, -1, -2))
        mats[:5] = 0.0
        mats[5:10] = np.einsum("ni,nj->nij", raw[5:10, 0], raw[5:10, 0])
        _, formula, _ = pucci_oracle_check(mats, e, n_samples=1, seed=0)
        scale = np.maximum(1.0, e.Lam * np.linalg.norm(mats, axis=(-2, -1)))
        assert np.all(np.abs(formula - pucci_plus(mats, e)) <= 1e-13 * scale)

    @pytest.mark.parametrize("window", [(1.0, 3.0), (1e-3, 1e3)])
    @pytest.mark.parametrize("m", range(1, 7))
    def test_sampled_sups_match_per_column_traces(self, m, window):
        # The formed A contracted with M against sum_j c_j u_j^T M u_j on the
        # same draws: 4097 samples cross a chunk boundary, and 2B + 3
        # matrices of norms 1e-3 to 1e3 fill blocks of B and end inside one.
        from carnotx.pucci import _BLOCK as B
        from carnotx.pucci import _sampled_sups

        e = Ellipticity(*window)
        rng = np.random.default_rng(60 + m)
        raw = rng.standard_normal((2 * B + 3, m, m)) * rng.uniform(1e-3, 1e3, (2 * B + 3, 1, 1))
        mats = 0.5 * (raw + np.swapaxes(raw, -1, -2))
        got = _sampled_sups(mats, e, 4097, seed=13)
        want = reference_sampled_sups(mats, e.lam, e.Lam, 4097, seed=13)
        scale = np.maximum(1.0, e.Lam * np.linalg.norm(mats, axis=(-2, -1)))
        assert np.all(np.abs(got - want) <= 1e-13 * scale)

    @pytest.mark.parametrize("m", range(1, 7))
    def test_haar_columns_match_sign_fixed_lapack_qr(self, m):
        from carnotx.pucci import _haar_columns

        g = np.random.default_rng(20 + m).standard_normal((10_000, m, m))
        q, r = np.linalg.qr(g)
        signs = np.sign(np.einsum("nii->ni", r))
        signs[signs == 0.0] = 1.0
        want = q * signs[:, None, :]
        got = np.transpose(_haar_columns(g, np.empty((m, m, len(g)))), (2, 1, 0))
        assert np.abs(got - want).max() <= 1e-12
        assert np.abs(np.swapaxes(got, -1, -2) @ got - np.eye(m)).max() <= 1e-13

    @pytest.mark.parametrize(
        "spoil, match",
        [
            ("normal", "zero or non-finite norm"),  # column 1 of every draw zeroed
            ("uniform", "not finite"),  # one coefficient NaN
        ],
    )
    def test_degenerate_draws_raise(self, monkeypatch, spoil, match):
        from carnotx import pucci

        class Spoiled:
            def __init__(self, rng):
                self.rng = rng

            def standard_normal(self, size):
                g = self.rng.standard_normal(size)
                if spoil == "normal":
                    g[:, :, 1] = 0.0
                return g

            def uniform(self, low, high, size):
                c = self.rng.uniform(low, high, size)
                if spoil == "uniform":
                    c[3, 0] = np.nan
                return c

        real = pucci.substream
        monkeypatch.setattr(pucci, "substream", lambda *key: Spoiled(real(*key)))
        with pytest.raises(RuntimeError, match=match):
            pucci_oracle_check(random_sym(np.random.default_rng(12), 3), E13, 64, seed=0)

    def test_formula_check_fails_a_low_formula(self, monkeypatch):
        import carnotx.pucci as pucci

        rep = pucci_formula_check(E13, dim=2, count=8, n_samples=4096, seed=42)
        assert rep.passed and rep.worst_gap <= 0.0 and rep.attained
        real = pucci.pucci_plus_of_eigenvalues
        monkeypatch.setattr(pucci, "pucci_plus_of_eigenvalues", lambda eigs, e: real(eigs, e) - 1.0)
        rep = pucci_formula_check(E13, dim=2, count=8, n_samples=4096, seed=42)
        assert rep.worst_gap > 0.0 and not rep.attained and not rep.passed

    def test_empty_stack_is_rejected(self):
        with pytest.raises(ValueError, match="at least one matrix"):
            pucci_oracle_check(np.zeros((0, 3, 3)), E13, n_samples=8, seed=0)


class TestIsaacsGap:
    def test_gap_nonnegative_for_extremal_operator(self):
        rng = np.random.default_rng(7)
        mat = random_sym(rng, 3)
        ys = [random_sym(rng, 3) for _ in range(20)] + [mat]
        gap = isaacs_gap(lambda m: pucci_minus(m, E13), mat, ys, E13)
        assert gap >= -1e-10

    def test_gap_zero_at_matching_matrix(self):
        rng = np.random.default_rng(8)
        mat = random_sym(rng, 3)
        gap = isaacs_gap(lambda m: pucci_plus(m, E13), mat, [mat], E13)
        assert gap == pytest.approx(0.0, abs=1e-13)

    def test_sandwich_violation_detected(self):
        # G = 5 * trace grows faster than the upper extremal envelope allows.
        rng = np.random.default_rng(9)
        mat = random_sym(rng, 3)
        ys = [mat - np.eye(3)]
        with pytest.raises(ValueError):
            isaacs_gap(lambda m: 5.0 * np.trace(m, axis1=-2, axis2=-1), mat, ys, E13)
