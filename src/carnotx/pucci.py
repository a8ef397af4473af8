"""Pucci extremal operators over symmetric matrices.

The maximal operator is the supremum of Tr(A M) over symmetric A with
spectrum in [lam, Lam]; in eigenvalues it is Lam * (positive part sum) +
lam * (negative part sum), with the minimal operator as its dual.  Both
read eigenvalues only, which come from one LAPACK call per stack
(np.linalg.eigvalsh), whose bits do not depend on the stack or the thread
count on a given platform.  Only the oracle, which builds the optimizer
A*, asks LAPACK for eigenvectors.  A single matrix is the one-element case
of a stack (..., m, m).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .group import _dot, _row_sums
from .rng import substream

__all__ = [
    "Ellipticity",
    "sym_eigenvalues",
    "pucci_plus",
    "pucci_minus",
    "pucci_plus_of_eigenvalues",
    "pucci_minus_of_eigenvalues",
    "pucci_oracle_check",
    "isaacs_gap",
]

_SANDWICH_TOL = 1e-9
# Matrices the oracle scores per contraction.  The traced peak of
# `pucci --dim 6 --count 512 --samples 1024` is 1.61 MB at 8, and that of
# `pucci` at its defaults 1.79 MB at 8 and 2.25 MB at 16, against a 2 MB bound.
_BLOCK = 8


@dataclass(frozen=True)
class Ellipticity:
    """Ellipticity window 0 < lam <= Lam < inf."""

    lam: float
    Lam: float

    def __post_init__(self) -> None:
        if not (0.0 < self.lam <= self.Lam < np.inf):
            raise ValueError(
                f"ellipticity requires 0 < lam <= Lam < inf, got ({self.lam}, {self.Lam})"
            )


def _as_symmetric(matrix: np.ndarray) -> np.ndarray:
    a = np.asarray(matrix, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] == 0:
        raise ValueError(f"expected nonempty square matrices, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    at = np.swapaxes(a, -1, -2)
    scale = np.abs(a).max(axis=(-2, -1), keepdims=True, initial=1.0)
    if not (np.abs(a - at) <= 1e-12 * scale).all():
        raise ValueError("matrix is not symmetric")
    return 0.5 * (a + at)


def _frobenius(a: np.ndarray) -> np.ndarray:
    """Frobenius norms of a stack (..., m, m), each as np.linalg.norm takes it."""
    flat = np.ascontiguousarray(a).reshape(a.shape[:-2] + (a.shape[-2] * a.shape[-1],))
    return np.sqrt(_dot(flat, flat))


def sym_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues (..., m) of a symmetric matrix or a stack (..., m, m).

    One LAPACK call (np.linalg.eigvalsh, syevd without vectors) on the
    whole stack, which treats each matrix on its own: a matrix gets the
    bits of a call on it alone, whatever the stack or the thread count,
    though the bits may differ between LAPACK builds.  An empty stack
    gives shape (0, m).  LAPACK's failure to converge raises numpy's
    LinAlgError, a ValueError.
    """
    return np.linalg.eigvalsh(_as_symmetric(matrix))


def _part_sums(eigs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sums of the positive and of the negative parts over the last axis of eigs (..., k).

    The bits of np.sum(np.maximum(eigs, 0.0), axis=-1) and its np.minimum
    twin for every k (``group._row_sums``).
    """
    eigs = np.asarray(eigs, dtype=float)
    k = eigs.shape[-1]
    return (
        _row_sums(eigs, k, lambda col, out=None: np.maximum(col, 0.0, out=out)),
        _row_sums(eigs, k, lambda col, out=None: np.minimum(col, 0.0, out=out)),
    )


def pucci_plus_of_eigenvalues(eigs: np.ndarray, e: Ellipticity) -> np.ndarray:
    """Maximal operator from eigenvalue arrays of shape (..., k)."""
    positive, negative = _part_sums(eigs)
    return e.Lam * positive + e.lam * negative


def pucci_minus_of_eigenvalues(eigs: np.ndarray, e: Ellipticity) -> np.ndarray:
    """Minimal operator from eigenvalue arrays of shape (..., k)."""
    positive, negative = _part_sums(eigs)
    return e.lam * positive + e.Lam * negative


def pucci_plus(matrix: np.ndarray, e: Ellipticity) -> np.ndarray:
    """Maximal Pucci operator of a symmetric matrix or a stack; shape (...)."""
    return pucci_plus_of_eigenvalues(sym_eigenvalues(matrix), e)


def pucci_minus(matrix: np.ndarray, e: Ellipticity) -> np.ndarray:
    """Minimal Pucci operator of a symmetric matrix or a stack; shape (...)."""
    return pucci_minus_of_eigenvalues(sym_eigenvalues(matrix), e)


def _haar_columns(g: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Q factors with positive-diagonal R of a stack g (k, m, m), written to `cols` (m, m, k).

    Entry [j, i, n] is row i of column j of sample n's Q, so each column of
    every sample is one contiguous (m, k) slab.  Classical Gram-Schmidt,
    applied twice, keeps Q orthogonal to working precision (Giraud, Langou
    & Rozloznik 2005).  Its R has a positive diagonal by construction, so
    Q is the unique such QR factor, which is Haar-distributed for Gaussian
    g (Mezzadri 2007).  A zero or non-finite column norm raises
    RuntimeError.
    """
    np.copyto(cols, np.transpose(g, (2, 1, 0)))
    for j in range(cols.shape[0]):
        v, prev = cols[j], cols[:j]
        for _ in range(2 if j else 0):
            v -= np.einsum("jk,jik->ik", np.einsum("jik,ik->jk", prev, v), prev)
        norm = np.sqrt(np.einsum("ik,ik->k", v, v))
        if not np.all((norm > 0.0) & (norm < np.inf)):
            raise RuntimeError(f"Gram-Schmidt column {j} has zero or non-finite norm")
        v /= norm
    return cols


def _sampled_sups(a: np.ndarray, e: Ellipticity, n_samples: int, seed: int) -> np.ndarray:
    """Sampled max of Tr(A a_i) for each matrix a_i of a stack (N, m, m), over one sample set.

    Each chunk's A = sum_j c_j u_j u_j^T over the columns u_j of Haar U is
    formed once, as an (m*m, k) slab, so a column's sign does not matter,
    and Tr(A a_i) = <A, a_i>_F is one contraction with a_i's entries.  One
    chunk with its slab, one (_BLOCK, k) block of traces and the (N,)
    running maxima are held.  Both einsums run numpy's own loops, not BLAS,
    and a trace sums over a_i's entries alone, so matrix i's bits are those
    of a stack of a_i alone, whatever the block or the BLAS thread count.
    """
    m = a.shape[-1]
    rng = substream(seed, "pucci-oracle")
    sups = np.full(len(a), -np.inf)
    for start in range(0, n_samples, 4096):
        k = min(4096, n_samples - start)
        cols = _haar_columns(rng.standard_normal((k, m, m)), np.empty((m, m, k)))
        coeffs = rng.uniform(e.lam, e.Lam, size=(k, m))
        slab = np.einsum("jpk,jqk->pqk", cols * coeffs.T[:, None, :], cols).reshape(m * m, k)
        for lo in range(0, len(a), _BLOCK):
            block, best = a[lo : lo + _BLOCK], sups[lo : lo + _BLOCK]
            traces = np.einsum("np,pk->nk", block.reshape(len(block), m * m), slab)
            if not np.isfinite(traces).all():
                raise RuntimeError("sampled trace Tr(A M) is not finite")
            np.maximum(best, traces.max(axis=1), out=best)
    return sups


def pucci_oracle_check(
    matrix: np.ndarray, e: Ellipticity, n_samples: int, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stress the sup representation of the maximal operator.

    For each matrix M of a stack (..., m, m), samples admissible
    coefficient matrices A = U diag(c) U^T with Haar U and spectra c
    uniform in [lam, Lam], maximizes Tr(A M) over the sample, and builds
    the optimizer A* sharing M's eigenvectors with coefficient Lam on
    nonnegative eigendirections and lam elsewhere.  One sample set, drawn
    from substream(seed, "pucci-oracle"), serves every matrix of the
    stack: per chunk of at most 4096 samples, the Gaussians whose
    twice-applied Gram-Schmidt factor is U (_haar_columns), then c.  Each
    matrix therefore gets the bits of a call on it alone with the same
    seed.  Each sample's A is formed once per chunk and its trace against
    M is the Frobenius product <A, M>_F, and nothing here shares code with
    the LAPACK eigensolver that gives the formula; one eigh call on the
    stack gives both the formula's eigenvalues and A*'s eigenvectors.

    Returns (oracle_sup, formula_value, attained), each of shape (...),
    where ``attained`` says Tr(A* M) reproduces the eigenvalue formula to
    1e-10 * max(1, Lam ||M||), the scale of Tr(A* M).  A degenerate sample,
    a Gram-Schmidt column of zero or non-finite norm or a non-finite trace,
    raises RuntimeError.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    a = _as_symmetric(matrix)
    lead, m = a.shape[:-2], a.shape[-1]
    a = a.reshape((-1, m, m))
    if not len(a):
        raise ValueError("need at least one matrix")
    eigs, vectors = np.linalg.eigh(a)
    formula = pucci_plus_of_eigenvalues(eigs, e)
    oracle_sup = _sampled_sups(a, e, n_samples, seed)
    coeff_star = np.where(eigs > 0.0, e.Lam, e.lam)
    a_star = (vectors * coeff_star[:, None, :]) @ np.swapaxes(vectors, -1, -2)
    traces = np.einsum("nij,nji->n", a_star, a)
    attained = np.abs(traces - formula) <= 1e-10 * np.maximum(1.0, e.Lam * _frobenius(a))
    return tuple(x.reshape(lead)[()] for x in (oracle_sup, formula, attained))


# The bound on `pucci_formula_check`'s gap of the sampled sup above the formula.
PUCCI_TOL = 1e-10


@dataclass(frozen=True)
class PucciFormulaCheck:
    """The worst matrix's gap; ``passed`` is a property, so no key of a written report."""

    worst_gap: float
    worst_index: int
    oracle_sup: float
    formula: float
    attained: bool

    @property
    def passed(self) -> bool:
        return self.attained and self.worst_gap <= PUCCI_TOL


def pucci_formula_check(
    e: Ellipticity, dim: int, count: int, n_samples: int, seed: int
) -> PucciFormulaCheck:
    """`pucci_oracle_check` on `count` random symmetric matrices.

    Each gap of the sampled sup above the formula is divided by
    max(1, Lam ||M||), the scale of Tr(A M) and of its rounding error, as
    ``attained`` is, so a correct formula passes at any window.
    """
    raw = substream(seed, "pucci-cli").standard_normal((count, dim, dim))
    mats = 0.5 * (raw + np.swapaxes(raw, -1, -2))
    sups, formula, attained = pucci_oracle_check(mats, e, n_samples, seed)
    gaps = (sups - formula) / np.maximum(1.0, e.Lam * _frobenius(mats))
    i = int(np.argmax(gaps))
    return PucciFormulaCheck(
        float(gaps[i]), i, float(sups[i]), float(formula[i]), bool(np.all(attained))
    )


def isaacs_gap(
    gop: Callable[[np.ndarray], np.ndarray],
    matrix: np.ndarray,
    y_samples: Sequence[np.ndarray],
    e: Ellipticity,
) -> float:
    """Slack of the min-max representation at ``matrix``.

    Evaluates min over Y in {matrix} union y_samples of
    [max-operator(M - Y) + gop(Y)] - gop(M).  For any operator with the
    uniform ellipticity sandwich this is nonnegative and vanishes at
    Y = M, which is always included.  ``gop`` maps a stack (..., m, m) to
    shape (...).

    The sandwich is the caller's responsibility; it is spot-checked on the
    supplied sample pairs, to within _SANDWICH_TOL, and a violation raises
    ValueError.
    """
    a = _as_symmetric(matrix)
    ys = _as_symmetric(np.asarray(y_samples, dtype=float).reshape((-1,) + a.shape))
    g_m = float(gop(a))
    g_y = np.asarray(gop(ys), dtype=float)
    eigs = sym_eigenvalues(a - ys)
    diff_plus = pucci_plus_of_eigenvalues(eigs, e)
    diff_minus = pucci_minus_of_eigenvalues(eigs, e)
    delta = g_m - g_y
    within = (diff_minus - _SANDWICH_TOL <= delta) & (delta <= diff_plus + _SANDWICH_TOL)
    if not np.all(within):
        raise ValueError(
            "operator violates the uniform ellipticity sandwich on a sample pair"
        )
    # the Y = M term is exactly zero
    return float(np.min(diff_plus + g_y - g_m, initial=0.0))
