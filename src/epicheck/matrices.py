"""Symmetric positive-definite matrices and determinant-ratio gaps.

Exact linear-algebra layer used as the oracle for every Gaussian closed
form in the package: Cholesky log-determinants, principal minors, Schur
complements, and the superadditivity gaps of determinant ratios under
matrix addition (Bergstrom-type, one deleted row/column, and Ky Fan-type,
a leading principal block with a k-th root).  Also provides generators for
random well-conditioned instances and for the equal-minor family where the
determinant itself becomes superadditive along the segment between two
matrices.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .exceptions import DimensionError, NotPositiveDefiniteError, PreconditionError

SYMMETRY_RTOL = 1e-12
DET_MATCH_RTOL = 1e-9


class SpdMatrix:
    """Symmetric positive-definite matrix with a cached Cholesky factor.

    Symmetry is enforced entrywise to 1e-12 relative tolerance; positive
    definiteness is certified by the factorization itself.  The stored
    entries and factor are read-only.
    """

    __slots__ = ("entries", "chol", "_log_det")

    def __init__(self, entries) -> None:
        a = np.array(entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionError(f"expected a square matrix, got shape {a.shape}")
        if a.shape[0] < 1:
            raise DimensionError("matrix dimension must be at least 1")
        if not np.isfinite(a).all():
            raise ValueError("matrix entries must be finite")
        tol = SYMMETRY_RTOL * np.maximum(1.0, np.abs(a))
        if np.any(np.abs(a - a.T) > tol):
            raise ValueError("matrix is not symmetric to 1e-12 relative tolerance")
        a = 0.5 * (a + a.T)
        self.entries, self.chol = a, _cholesky(a)
        a.setflags(write=False)
        self.chol.setflags(write=False)
        self._log_det = float(_chol_logdet(self.chol))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @property
    def log_det(self) -> float:
        """log det, summed from the Cholesky pivots (no overflow for any dim)."""
        return self._log_det

    def __repr__(self) -> str:
        return f"SpdMatrix(dim={self.dim})"


def _cholesky(a: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(
            "Cholesky factorization failed: matrix is not positive definite"
        ) from exc


def _chol_logdet(chol: np.ndarray):
    """log det of L L' from its Cholesky factor L, twice the log-sum of the
    pivots; a (k, n, n) stack of factors gives its k log-dets by one reduction
    over the stack's pivots.  Each row is summed as that factor's own pivots
    are, so a factor's log-det has the same bits in a stack or alone."""
    return 2.0 * np.add.reduce(np.log(chol.diagonal(0, -2, -1)), axis=-1)


def _factored(a: np.ndarray) -> list[SpdMatrix]:
    """SpdMatrix of each matrix of a (k, n, n) stack that is symmetric positive
    definite by construction (principal blocks, positive multiples, sums or
    symmetrized images A M A' of such matrices), factored by one Cholesky call
    on the stack but not checked again, except that entries which overflowed
    to inf or NaN are refused as SpdMatrix refuses them.  Each has the
    entries, factor and log-det it would have alone."""
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    chols = _cholesky(a)
    a.setflags(write=False)  # the views of each matrix below inherit it
    chols.setflags(write=False)
    out = []
    for entries, chol, log_det in zip(a, chols, _chol_logdet(chols).tolist()):
        m = SpdMatrix.__new__(SpdMatrix)
        m.entries, m.chol, m._log_det = entries, chol, log_det
        out.append(m)
    return out


def _same_dim(a, b, min_dim: int = 1) -> int:
    """Common dimension of two matrices or laws, required to be >= min_dim."""
    if a.dim != b.dim:
        raise DimensionError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if a.dim < min_dim:
        raise DimensionError(f"needs dimension at least {min_dim}")
    return a.dim


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


def _check_lambda(lam) -> float:
    """lam as a float: a real number, not a bool, in [0, 1] (ValueError otherwise)."""
    if not isinstance(lam, numbers.Real) or isinstance(lam, bool):
        raise ValueError(f"lambda must be a real number in [0, 1], got {lam!r}")
    lam = float(lam)
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must lie in [0, 1], got {lam}")
    return lam


def _check_index(i, n: int) -> int:
    """A deleted row/column: an integer (ValueError otherwise, so a bool or 1.5
    is refused) in [0, n) (IndexError otherwise)."""
    if not _is_int(i):
        raise ValueError(f"index must be an integer, got {i!r}")
    if not 0 <= i < n:
        raise IndexError(f"index {i} out of range for dimension {n}")
    return int(i)


def _check_block(k, n: int) -> int:
    """A block size: an integer (ValueError otherwise) with 1 <= k <= n - 1
    (DimensionError otherwise)."""
    if not _is_int(k):
        raise ValueError(f"block size must be an integer, got {k!r}")
    if not 1 <= k <= n - 1:
        raise DimensionError(f"k must satisfy 1 <= k <= n-1, got k={k}, n={n}")
    return int(k)


def schur_complement_last(m) -> float:
    """Schur complement of the leading (n-1) block: m_nn - v' P^-1 v.

    Equals det(M) / det(M with last row/column deleted).
    """
    m = m if isinstance(m, SpdMatrix) else SpdMatrix(m)
    n = m.dim
    if n < 2:
        raise DimensionError("Schur complement needs dimension at least 2")
    p = m.entries[:-1, :-1]
    v = m.entries[:-1, -1]
    lp = np.linalg.cholesky(p)
    t = np.linalg.solve(lp, v)
    return float(m.entries[-1, -1] - t @ t)


def _principal_logdet(m: SpdMatrix, keep) -> float:
    """log det of M's principal block on the sorted coordinates ``keep``.  A
    leading block's factor is the leading block of M's factor, so its
    log-det is summed from M's first pivots; any other block is factored."""
    k = len(keep)
    if list(keep) == list(range(k)):
        return float(_chol_logdet(m.chol[:k, :k]))
    return float(_chol_logdet(_cholesky(m.entries[np.ix_(keep, keep)])))


def _sum_ratios(ratios, a: SpdMatrix, b: SpdMatrix) -> np.ndarray:
    """``ratios`` of the Cholesky factors of A+B, A and B, one row each: the
    sum is the only matrix factored here, and one call on the stacked
    factors serves all three."""
    chols = np.empty((3,) + a.chol.shape)
    chols[0] = _cholesky(a.entries + b.entries)
    chols[1], chols[2] = a.chol, b.chol
    return ratios(chols)


def _deletion_ratios(chol: np.ndarray) -> np.ndarray:
    """det(M) / det(M_i) for every i, from the Cholesky factor L of M (or
    from a stack of factors, a row of ratios each).

    The ratio is 1 / (M^-1)_ii, the Schur complement of M_i, and (M^-1)_ii is
    |L^-1 e_i|^2, so one inverse of L serves every i with no minor factored.
    The inverse is numpy's LU-based ``inv``, so the closed forms need no
    scipy; on a triangular L it is as accurate as LAPACK's ``dtrtri``.
    """
    inv = np.linalg.inv(chol)
    return 1.0 / np.square(inv, out=inv).sum(axis=-2)


def _block_ratios(chol: np.ndarray) -> np.ndarray:
    """(det(M) / det(leading (n-k) block))^(1/k) for k = 1..n-1, from the
    Cholesky factor L of M (or from a stack of factors, a row each): the
    block's factor is L's leading block, so the ratio is the geometric mean
    of the last k squared pivots of L."""
    pivots = np.diagonal(chol, axis1=-2, axis2=-1)
    tails = 2.0 * np.cumsum(np.log(pivots)[..., ::-1], axis=-1)[..., :-1]
    return np.exp(tails / np.arange(1, chol.shape[-1]))


def bergstrom_gap_all(a: SpdMatrix, b: SpdMatrix) -> np.ndarray:
    """Vector of row/column-deletion gaps for every index at once.

    Each matrix's n ratios come from one inverse of its Cholesky factor;
    A+B is the only matrix factored, and no minor is.
    """
    _same_dim(a, b, 2)
    term_s, term_a, term_b = _sum_ratios(_deletion_ratios, a, b)
    return term_s - term_a - term_b


def kyfan_gap_all(a: SpdMatrix, b: SpdMatrix) -> np.ndarray:
    """Vector of k-th-root gaps for every k in 1..n-1, from the pivots of the
    three Cholesky factors."""
    _same_dim(a, b, 2)
    term_s, term_a, term_b = _sum_ratios(_block_ratios, a, b)
    return term_s - term_a - term_b


def bonnesen_linear_gap(a: SpdMatrix, b: SpdMatrix, lam: float, i: int) -> float:
    """Superadditivity of the determinant itself along a segment.

    Requires det(A_i) = det(B_i) (relative tolerance 1e-9); under that
    hypothesis det(lam A + (1-lam) B) - lam det A - (1-lam) det B is
    nonnegative, and zero at the endpoints.
    """
    i = _check_index(i, _same_dim(a, b, 2))
    lam = _check_lambda(lam)
    _check_equal_minors(a, b, i)
    mixed = lam * a.entries + (1.0 - lam) * b.entries
    det_mixed = _det(_chol_logdet(_cholesky(mixed)))
    return det_mixed - lam * _det(a.log_det) - (1.0 - lam) * _det(b.log_det)


def _check_equal_minors(a: SpdMatrix, b: SpdMatrix, i: int) -> None:
    """PreconditionError unless det(A_i) = det(B_i) to DET_MATCH_RTOL; NaN fails.
    The test is read in log space: the relative difference of the two
    determinants is 1 - exp(-|log det(A_i) - log det(B_i)|), so minors whose
    determinants underflow or overflow a double are still told apart.  Each
    minor's log-det is read from its own pivots (``_principal_logdet``), so
    equal minors give equal bits at any condition number; det(M) / (its
    deletion ratio) would not (it misses by up to ~1e-8 relative at condition
    1e8, beyond DET_MATCH_RTOL)."""
    keep = [j for j in range(a.dim) if j != i]
    ld_ai, ld_bi = (_principal_logdet(m, keep) for m in (a, b))
    if not -math.expm1(-abs(ld_ai - ld_bi)) <= DET_MATCH_RTOL:
        raise PreconditionError(
            f"minor determinants differ: log det(A_{i}) = {ld_ai!r}, log det(B_{i}) = {ld_bi!r}"
        )


def _det(log_det: float) -> float:
    """exp(log_det), or OverflowError where that is not a finite double."""
    with np.errstate(over="ignore"):
        det = float(np.exp(log_det))
    if not np.isfinite(det):
        raise OverflowError(f"determinant exp({log_det!r}) overflows a double")
    return det


def random_spd(n: int, rng: np.random.Generator, condition_cap: float = 1e3) -> SpdMatrix:
    """Random SPD matrix M'M + eps I with condition number at most the cap.

    eps is the smallest nonnegative shift achieving the cap, so
    well-conditioned draws are returned unshifted.
    """
    if n < 1:
        raise DimensionError("dimension must be at least 1")
    if not condition_cap > 1.0:  # NaN is refused too
        raise ValueError(f"condition_cap must exceed 1, got {condition_cap!r}")
    m = rng.standard_normal((n, n))
    w = m.T @ m
    w = 0.5 * (w + w.T)
    eig = np.linalg.eigvalsh(w)
    lo, hi = float(eig[0]), float(eig[-1])
    if lo <= 0.0 or hi / lo > condition_cap:
        eps = (hi - condition_cap * lo) / (condition_cap - 1.0)
        w = w + eps * np.eye(n)
    return SpdMatrix(w)


def make_bonnesen_equality_pair(
    n: int, rng: np.random.Generator
) -> tuple[SpdMatrix, SpdMatrix]:
    """Random SPD pair differing only in the last diagonal entry.

    The determinant is affine in that entry once everything else is fixed,
    so the segment gap of :func:`bonnesen_linear_gap` vanishes identically
    for the pair (at i = n-1), which is exactly its equality family.
    """
    if n < 2:
        raise DimensionError("equality pair needs dimension at least 2")
    first = random_spd(n, rng)
    schur = schur_complement_last(first)
    factor = float(rng.uniform(1.5, 3.0))
    entries = np.array(first.entries)
    entries[n - 1, n - 1] += (factor - 1.0) * schur
    return first, SpdMatrix(entries)
