"""Tests for SPD matrices, determinant-ratio gaps, and generators."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epicheck import (
    CheckConfig,
    DimensionError,
    NotPositiveDefiniteError,
    PreconditionError,
    SpdMatrix,
    bergstrom_gap_all,
    bonnesen_linear_gap,
    check_equality_case_bonnesen,
    kyfan_gap_all,
    make_bonnesen_equality_pair,
    random_spd,
)
from epicheck.checks import EQUALITY_GRID_POINTS
from epicheck.estimators import LN_2PIE
from epicheck.matrices import (
    _block_ratios,
    _check_equal_minors,
    _cholesky,
    _chol_logdet,
    _deletion_ratios,
    _factored,
    _principal_logdet,
)
from epicheck.seeding import rng_from_tokens

# worked pair: det A = 3, det B = 5, det(A+B) = 20
A = SpdMatrix([[2.0, 1.0], [1.0, 2.0]])
B = SpdMatrix([[3.0, -1.0], [-1.0, 2.0]])

EPS = np.finfo(float).eps
KINDS = ("random_spd", "condition_1e8", "diagonal")


def conditioned_spd(n: int, cond: float, rng) -> SpdMatrix:
    """Q diag(eigenvalues log-spaced from 1 to ``cond``) Q' for a random
    orthogonal Q, symmetrized."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    m = (q * np.geomspace(1.0, cond, n)) @ q.T
    return SpdMatrix(0.5 * (m + m.T))


def spd_pair(kind: str, n: int, seed: int) -> tuple[SpdMatrix, SpdMatrix]:
    """Two n x n SPD matrices: generic draws under a 1e8 condition cap, draws
    of condition exactly 1e8, or a diagonal pair (where every det-ratio gap is 0)."""
    rng = rng_from_tokens(seed, "factor-route", kind, n)
    if kind == "random_spd":
        return random_spd(n, rng, condition_cap=1e8), random_spd(n, rng, condition_cap=1e8)
    if kind == "condition_1e8":
        return conditioned_spd(n, 1e8, rng), conditioned_spd(n, 1e8, rng)
    return tuple(SpdMatrix(np.diag(rng.uniform(0.01, 100.0, n))) for _ in range(2))


def lu_logdet(a: np.ndarray) -> float:
    sign, ld = np.linalg.slogdet(a)
    assert sign == 1.0
    return float(ld)


def minor_ratios(m: SpdMatrix) -> np.ndarray:
    """det(M) / det(M_i) for every i, each minor built by np.delete and
    measured by LU: the per-minor reference for the factor route."""
    a = m.entries
    return np.array([
        math.exp(lu_logdet(a) - lu_logdet(np.delete(np.delete(a, i, 0), i, 1)))
        for i in range(m.dim)
    ])


def leading_block_ratios(m: SpdMatrix) -> np.ndarray:
    """(det(M) / det(leading (n-k) block))^(1/k) for k = 1..n-1, by LU."""
    a, n = m.entries, m.dim
    return np.array([
        math.exp((lu_logdet(a) - lu_logdet(a[:n - k, :n - k])) / k) for k in range(1, n)
    ])


def route_rtol(m: SpdMatrix) -> float:
    """Relative tolerance between a ratio (or a log-det, absolutely) read from
    M's factor and one from LU log-determinants, fixed before these tests
    first ran: 16 n cond(M) eps, the first-order rounding bound of either
    route, whose log-determinants move by tr(M^-1 dM) <= n cond(M) |dM| / |M|."""
    return 16 * m.dim * float(np.linalg.cond(m.entries)) * EPS


class TestSpdMatrix:
    def test_log_det_worked_values(self):
        assert A.log_det == pytest.approx(math.log(3.0), rel=1e-13)
        assert B.log_det == pytest.approx(math.log(5.0), rel=1e-13)
        assert SpdMatrix(np.eye(4)).log_det == pytest.approx(0.0, abs=1e-13)

    def test_dim(self):
        assert A.dim == 2
        assert SpdMatrix([[4.0]]).dim == 1

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            SpdMatrix(np.ones((2, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            SpdMatrix([[1.0, 0.5], [0.2, 1.0]])

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefiniteError):
            SpdMatrix([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NotPositiveDefiniteError):
            SpdMatrix([[0.0]])

    def test_symmetrizes_roundoff(self):
        m = np.array([[2.0, 1.0 + 1e-14], [1.0, 2.0]])
        s = SpdMatrix(m)
        assert np.array_equal(s.entries, s.entries.T)

    def test_entries_read_only(self):
        with pytest.raises(ValueError):
            A.entries[0, 0] = 9.0

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1)])
    def test_rejects_non_finite_entries_without_warning(self, bad, where):
        m = np.eye(2)
        m[where] = m[where[::-1]] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                SpdMatrix(m)


class TestFactored:
    @pytest.mark.parametrize("make", [
        lambda a: a[:3, :3],
        lambda a: a + 0.25 * np.eye(4),
        lambda a: a + np.diag([1.0, 2.0, 3.0, 4.0]),
        lambda a: 0.3 * 0.3 * a,
        lambda a: a[np.ix_([2, 0, 3], [2, 0, 3])],
        lambda a: np.delete(np.delete(a, 1, 0), 1, 1),
    ])
    def test_matches_checked_construction(self, make):
        a = random_spd(4, rng_from_tokens(9, "factored")).entries
        [fast], checked = _factored(make(a)[None]), SpdMatrix(make(a))
        assert np.array_equal(fast.entries, checked.entries)
        assert np.array_equal(fast.chol, checked.chol)
        assert fast.log_det == checked.log_det
        assert not fast.entries.flags.writeable and not fast.chol.flags.writeable

    @pytest.mark.parametrize("n", range(1, 10))
    def test_stack_is_factored_as_each_matrix_alone(self, n):
        rng = rng_from_tokens(26, "factored-stack", n)
        for k in range(1, 22):
            stack = np.array([random_spd(n, rng, condition_cap=10.0 ** rng.uniform(1, 8)).entries
                              * 10.0 ** rng.uniform(-3, 3) for _ in range(k)])
            alone = [SpdMatrix(a) for a in stack]
            together = _factored(stack.copy())
            assert len(together) == k
            for fast, one in zip(together, alone):
                assert np.array_equal(fast.entries, one.entries)
                assert np.array_equal(fast.chol, one.chol)
                assert fast.log_det == one.log_det
                assert not fast.entries.flags.writeable and not fast.chol.flags.writeable

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_stack_refuses_non_finite_entries(self, bad):
        stack = np.array([np.eye(3)] * 4)
        stack[2, 1, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            _factored(stack)


class TestSubmatrices:
    def test_schur_complement_last(self):
        assert A.dim == 2
        from epicheck import schur_complement_last

        assert schur_complement_last(A) == pytest.approx(1.5, rel=1e-13)
        assert schur_complement_last(SpdMatrix(np.eye(3))) == pytest.approx(1.0)
        # det / det(minor) identity
        s = SpdMatrix([[4.0, 1.0, 0.5], [1.0, 3.0, -0.2], [0.5, -0.2, 2.0]])
        expected = math.exp(s.log_det - SpdMatrix(s.entries[:2, :2]).log_det)
        assert schur_complement_last(s) == pytest.approx(expected, rel=1e-12)


class TestBergstromGap:
    def test_worked_pair(self):
        # 20/4 - 3/2 - 5/2 = 1 and 20/5 - 3/2 - 5/3 = 5/6
        gaps = bergstrom_gap_all(A, B)
        assert gaps[0] == pytest.approx(1.0, abs=1e-12)
        assert gaps[1] == pytest.approx(5.0 / 6.0, abs=1e-12)

    def test_diagonal_pair_equality(self):
        a = SpdMatrix(np.diag([1.0, 2.0, 3.0]))
        b = SpdMatrix(np.diag([0.5, 4.0, 1.5]))
        assert np.abs(bergstrom_gap_all(a, b)).max() < 1e-12

    def test_dimension_validation(self):
        with pytest.raises(DimensionError):
            bergstrom_gap_all(A, SpdMatrix(np.eye(3)))
        with pytest.raises(DimensionError):
            bergstrom_gap_all(SpdMatrix([[1.0]]), SpdMatrix([[2.0]]))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(2, 7), st.integers(0, 2**32 - 1))
    def test_never_negative(self, n, seed):
        rng = rng_from_tokens(seed, "prop-bergstrom", n)
        a = random_spd(n, rng)
        b = random_spd(n, rng)
        assert bergstrom_gap_all(a, b).min() > -1e-9


class TestKyFanGap:
    def test_k1_equals_last_index_bergstrom(self):
        assert kyfan_gap_all(A, B)[0] == pytest.approx(bergstrom_gap_all(A, B)[1], abs=1e-12)

    def test_dimension_validation(self):
        with pytest.raises(DimensionError):
            kyfan_gap_all(A, SpdMatrix(np.eye(3)))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(2, 7), st.integers(0, 2**32 - 1))
    def test_never_negative(self, n, seed):
        rng = rng_from_tokens(seed, "prop-kyfan", n)
        a = random_spd(n, rng)
        b = random_spd(n, rng)
        assert kyfan_gap_all(a, b).min() > -1e-9

    def test_scaling_commutes(self):
        # (det cA / det (cA)_lead)^{1/k} = c (det A / det A_lead)^{1/k}
        rng = rng_from_tokens(5, "test-kyfan-scale")
        a = random_spd(4, rng)
        b = random_spd(4, rng)
        c = 0.37
        ca = SpdMatrix(c * a.entries)
        cb = SpdMatrix(c * b.entries)
        assert kyfan_gap_all(ca, cb) == pytest.approx(c * kyfan_gap_all(a, b), rel=1e-11)


class TestFactorRoutes:
    """Every ratio and block log-det read from a factor, against LU
    log-determinants of explicitly built minors and blocks."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 8), st.integers(0, 2**32 - 1), st.sampled_from(KINDS))
    def test_deletion_ratios_match_per_minor_slogdet(self, n, seed, kind):
        a, b = spd_pair(kind, n, seed)
        for m in (a, b, SpdMatrix(a.entries + b.entries)):
            np.testing.assert_allclose(
                _deletion_ratios(m.chol), minor_ratios(m), rtol=route_rtol(m), atol=0.0
            )

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 8), st.integers(0, 2**32 - 1), st.sampled_from(KINDS))
    def test_block_ratios_match_leading_block_slogdet(self, n, seed, kind):
        a, b = spd_pair(kind, n, seed)
        for m in (a, b, SpdMatrix(a.entries + b.entries)):
            np.testing.assert_allclose(
                _block_ratios(m.chol), leading_block_ratios(m), rtol=route_rtol(m), atol=0.0
            )

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 8), st.integers(0, 2**32 - 1), st.sampled_from(KINDS))
    def test_gaps_match_per_minor_slogdet(self, n, seed, kind):
        # a gap is a difference of ratios, so its error is bounded by the
        # largest route tolerance times the sum of the three ratios
        a, b = spd_pair(kind, n, seed)
        s = SpdMatrix(a.entries + b.entries)
        rtol = max(route_rtol(m) for m in (a, b, s))
        for gaps, ratios in ((bergstrom_gap_all(a, b), minor_ratios),
                             (kyfan_gap_all(a, b), leading_block_ratios)):
            terms = [ratios(m) for m in (s, a, b)]
            expected = terms[0] - terms[1] - terms[2]
            assert np.all(np.abs(gaps - expected) <= rtol * sum(terms))
            if kind == "diagonal":  # det ratios (k = 1) are additive: those gaps vanish
                width = n if ratios is minor_ratios else 1
                assert np.all(np.abs(gaps[:width]) <= (rtol * sum(terms))[:width])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 8), st.integers(0, 2**32 - 1), st.sampled_from(KINDS))
    def test_principal_logdet_matches_slogdet(self, n, seed, kind):
        m, _ = spd_pair(kind, n, seed)
        blocks = [list(range(k)) for k in range(1, n + 1)] + [list(range(1, n)), [0, n - 1]]
        for keep in blocks:
            expected = lu_logdet(m.entries[np.ix_(keep, keep)])
            assert abs(_principal_logdet(m, keep) - expected) <= route_rtol(m)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_equal_minors_accepted_at_every_index(self, n):
        # B = A + t e_i e_i' has the same minor M_i as A, so the precondition
        # must accept the pair however ill-conditioned A is (det(A) / (A^-1)_ii
        # misses det(A_i) by up to ~1e-8 relative at condition 1e8)
        for seed in range(20):
            a = conditioned_spd(n, 1e8, rng_from_tokens(seed, "equal-minors", n))
            for i in range(n):
                for t in (1.001, 3.0, 100.0):
                    b = a.entries.copy()
                    b[i, i] *= t
                    _check_equal_minors(a, SpdMatrix(b), i)


class TestFactorIdentity:
    """Bit-for-bit claims of the factor routes."""

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 20])
    @pytest.mark.parametrize("family", ["equality", "perturbed"])
    def test_stacked_equality_grid_is_the_per_point_factor(self, n, family):
        rng = rng_from_tokens(n, "stacked-grid", family)
        s1, s2 = make_bonnesen_equality_pair(n, rng)
        if family == "perturbed":
            b = s2.entries.copy()
            b[0, -1] = b[-1, 0] = b[0, -1] + 0.1
            s2 = SpdMatrix(b)
        lams = np.linspace(0.0, 1.0, EQUALITY_GRID_POINTS)
        grid = lams[:, None, None]
        chols = _cholesky((1.0 - grid) * s1.entries + grid * s2.entries)
        worst = None
        for lam, chol, log_det in zip(lams, chols, _chol_logdet(chols).tolist()):
            mixed = SpdMatrix((1.0 - lam) * s1.entries + lam * s2.entries)
            assert np.array_equal(chol, mixed.chol)
            assert log_det == mixed.log_det
            lhs = math.exp(n * LN_2PIE + mixed.log_det)
            rhs = ((1.0 - lam) * math.exp(n * LN_2PIE + s1.log_det)
                   + lam * math.exp(n * LN_2PIE + s2.log_det))
            rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0)
            if worst is None or rel > worst[0]:
                worst = (rel, float(lam), lhs, rhs)
        if family == "perturbed":
            return  # the minors differ: the check refuses the pair
        rep = check_equality_case_bonnesen(n, CheckConfig(seed=0), pair=(s1, s2))
        assert (rep.lam, rep.lhs, rep.rhs) == worst[1:]

    def test_stacked_grid_refusal_keeps_its_error_type(self):
        stack = np.stack([np.eye(2), np.array([[1.0, 2.0], [2.0, 1.0]])])
        with pytest.raises(NotPositiveDefiniteError):
            _cholesky(stack)

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 40])
    def test_equal_minors_have_equal_log_dets(self, n):
        a = conditioned_spd(n, 1e8, rng_from_tokens(n, "equal-minor-bits"))
        for i in range(n):
            b = a.entries.copy()
            b[i, i] *= 3.0
            keep = [j for j in range(n) if j != i]
            assert _principal_logdet(a, keep) == _principal_logdet(SpdMatrix(b), keep)


class TestBonnesenLinearGap:
    S1 = SpdMatrix(np.eye(2))
    S2 = SpdMatrix([[1.0, 0.1], [0.1, 4.0]])

    def test_perturbed_midpoint_gap(self):
        # det(mix) - mix of dets = lam(1-lam) * 0.1^2 at the midpoint
        gap = bonnesen_linear_gap(self.S1, self.S2, 0.5, 1)
        assert gap == pytest.approx(0.0025, rel=1e-10)

    def test_endpoints_are_exact(self):
        assert bonnesen_linear_gap(self.S1, self.S2, 0.0, 1) == pytest.approx(0.0, abs=1e-12)
        assert bonnesen_linear_gap(self.S1, self.S2, 1.0, 1) == pytest.approx(0.0, abs=1e-12)

    def test_equality_family_gap_vanishes(self):
        rng = rng_from_tokens(17, "test-bonnesen-family")
        a, b = make_bonnesen_equality_pair(3, rng)
        for lam in np.linspace(0.0, 1.0, 9):
            gap = bonnesen_linear_gap(a, b, float(lam), 2)
            assert abs(gap) < 1e-10 * max(1.0, math.exp(a.log_det))

    def test_minor_mismatch_rejected(self):
        other = SpdMatrix(np.diag([2.0, 1.0]))
        with pytest.raises(PreconditionError, match="minor determinants differ"):
            bonnesen_linear_gap(self.S1, other, 0.5, 1)

    def test_lambda_range(self):
        with pytest.raises(ValueError):
            bonnesen_linear_gap(self.S1, self.S2, 1.5, 1)

    def test_overflowing_determinants_raise(self):
        # det = 40^199 * 2 is not a double: an OverflowError, never a NaN gap
        n = 200
        a = SpdMatrix(np.diag([40.0] * (n - 1) + [2.0]))
        b = SpdMatrix(np.diag([40.0] * (n - 1) + [3.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="overflows a double"):
                bonnesen_linear_gap(a, b, 0.5, n - 1)

    def test_minors_that_underflow_are_told_apart(self):
        # det(A_199) = 1e-597 and det(B_199) = 2^199 det(A_199) both underflow
        # to 0.0; their log-dets differ by 199 log 2
        a, b = SpdMatrix(1e-3 * np.eye(200)), SpdMatrix(2e-3 * np.eye(200))
        with pytest.raises(PreconditionError, match="minor determinants differ"):
            bonnesen_linear_gap(a, b, 0.5, 199)
        with pytest.raises(PreconditionError, match="minor determinants differ"):
            check_equality_case_bonnesen(200, CheckConfig(seed=0), pair=(a, b))

    def test_scaled_equality_pair_keeps_the_precondition(self):
        a, b = make_bonnesen_equality_pair(200, rng_from_tokens(30, "scaled-pair"))
        a, b = SpdMatrix(1e-3 * a.entries), SpdMatrix(1e-3 * b.entries)
        _check_equal_minors(a, b, 199)
        bonnesen_linear_gap(a, b, 0.5, 199)
        rep = check_equality_case_bonnesen(200, CheckConfig(seed=0), pair=(a, b))
        assert rep.verdict == "equality_consistent"

    @pytest.mark.parametrize("n", range(2, 9))
    def test_finite_determinants_give_the_linear_formula_bit_for_bit(self, n):
        rng = rng_from_tokens(n, "test-bonnesen-linear-formula")
        for _ in range(20):
            a = random_spd(n, rng)
            b = a.entries.copy()  # same leading block, so det(A_n-1) = det(B_n-1)
            v = 0.1 * rng.standard_normal(n - 1)
            b[-1, :-1] += v
            b[:-1, -1] += v
            b[-1, -1] += 1.0 + v @ v
            b = SpdMatrix(b)
            lam = float(rng.uniform())
            mixed = lam * a.entries + (1.0 - lam) * b.entries
            expected = float(np.exp(SpdMatrix(mixed).log_det) - lam * np.exp(a.log_det)
                             - (1.0 - lam) * np.exp(b.log_det))
            assert bonnesen_linear_gap(a, b, lam, n - 1) == expected

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 6), st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
    def test_improvement_never_negative(self, n, seed, lam):
        rng = rng_from_tokens(seed, "prop-bonnesen", n)
        a, b = make_bonnesen_equality_pair(n, rng)
        det_scale = max(1.0, math.exp(a.log_det), math.exp(b.log_det))
        assert bonnesen_linear_gap(a, b, lam, n - 1) > -1e-9 * det_scale


class TestGenerators:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 8), st.integers(0, 2**32 - 1))
    def test_random_spd_is_valid_and_conditioned(self, n, seed):
        rng = rng_from_tokens(seed, "prop-spd", n)
        s = random_spd(n, rng, condition_cap=1e3)
        eig = np.linalg.eigvalsh(s.entries)
        assert eig[0] > 0.0
        assert eig[-1] / eig[0] <= 1e3 * (1.0 + 1e-9)

    def test_random_spd_deterministic(self):
        a = random_spd(4, rng_from_tokens(9, "spd"))
        b = random_spd(4, rng_from_tokens(9, "spd"))
        assert np.array_equal(a.entries, b.entries)

    @pytest.mark.parametrize("cap", [math.nan, 1.0, 0.5, -math.inf])
    @pytest.mark.parametrize("n", [1, 6])
    def test_condition_cap_validation(self, cap, n):
        # refused before the draw: a NaN cap once let a draw of condition
        # 4,871 through uncapped
        with pytest.raises(ValueError, match="condition_cap"):
            random_spd(n, rng_from_tokens(2, "c"), condition_cap=cap)

    @pytest.mark.parametrize("cap", [1.5, 10.0, 100.0, 1e3, 1e8])
    def test_valid_caps_keep_their_bits(self, cap):
        # the draw, shift and factor of the cap-after-the-draw rule, for caps above 1
        for n in range(1, 9):
            rng = rng_from_tokens(n, "cap-bits", cap)
            w = rng.standard_normal((n, n))
            w = w.T @ w
            w = 0.5 * (w + w.T)
            eig = np.linalg.eigvalsh(w)
            lo, hi = float(eig[0]), float(eig[-1])
            if lo <= 0.0 or hi / lo > cap:
                w = w + (hi - cap * lo) / (cap - 1.0) * np.eye(n)
            assert np.array_equal(random_spd(n, rng_from_tokens(n, "cap-bits", cap), cap).entries, w)

    def test_equality_pair_differs_only_in_last_diagonal(self):
        rng = rng_from_tokens(23, "test-pair")
        a, b = make_bonnesen_equality_pair(4, rng)
        diff = b.entries - a.entries
        assert diff[-1, -1] > 0.0
        off = diff.copy()
        off[-1, -1] = 0.0
        assert np.all(off == 0.0)
