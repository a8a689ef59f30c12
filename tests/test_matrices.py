"""Tests for SPD matrices, determinant-ratio gaps, and generators."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epicheck import (
    DimensionError,
    NotPositiveDefiniteError,
    PreconditionError,
    SpdMatrix,
    bergstrom_gap,
    bergstrom_gap_all,
    bonnesen_linear_gap,
    delete_row_col,
    kyfan_gap,
    kyfan_gap_all,
    leading_principal,
    log_det,
    make_bonnesen_equality_pair,
    random_spd,
)
from epicheck.matrices import _factored, _logdet_raw
from epicheck.seeding import rng_from_tokens

# worked pair: det A = 3, det B = 5, det(A+B) = 20
A = SpdMatrix([[2.0, 1.0], [1.0, 2.0]])
B = SpdMatrix([[3.0, -1.0], [-1.0, 2.0]])


class TestSpdMatrix:
    def test_log_det_worked_values(self):
        assert A.log_det == pytest.approx(math.log(3.0), rel=1e-13)
        assert B.log_det == pytest.approx(math.log(5.0), rel=1e-13)
        assert log_det(np.eye(4)) == pytest.approx(0.0, abs=1e-13)

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
    @pytest.mark.parametrize("make", [lambda a: a[:3, :3], lambda a: a + 0.25 * np.eye(4)])
    def test_matches_checked_construction(self, make):
        a = random_spd(4, rng_from_tokens(9, "factored")).entries
        fast, checked = _factored(make(a)), SpdMatrix(make(a))
        assert np.array_equal(fast.entries, checked.entries)
        assert np.array_equal(fast.chol, checked.chol)
        assert fast.log_det == checked.log_det
        assert not fast.entries.flags.writeable and not fast.chol.flags.writeable


class TestSubmatrices:
    M = SpdMatrix([[4.0, 1.0, 0.5], [1.0, 3.0, -0.2], [0.5, -0.2, 2.0]])

    def test_delete_row_col(self):
        out = delete_row_col(self.M, 1)
        assert np.array_equal(out.entries, [[4.0, 0.5], [0.5, 2.0]])

    def test_delete_bounds(self):
        with pytest.raises(IndexError):
            delete_row_col(np.eye(3), 3)
        with pytest.raises(DimensionError):
            delete_row_col(SpdMatrix([[1.0]]), 0)

    def test_leading_principal(self):
        assert np.array_equal(leading_principal(self.M, 2).entries, self.M.entries[:2, :2])
        with pytest.raises(DimensionError):
            leading_principal(self.M, 0)
        with pytest.raises(DimensionError):
            leading_principal(self.M, 4)

    def test_schur_complement_last(self):
        assert A.dim == 2
        from epicheck import schur_complement_last

        assert schur_complement_last(A) == pytest.approx(1.5, rel=1e-13)
        assert schur_complement_last(SpdMatrix(np.eye(3))) == pytest.approx(1.0)
        # det / det(minor) identity
        s = SpdMatrix([[4.0, 1.0, 0.5], [1.0, 3.0, -0.2], [0.5, -0.2, 2.0]])
        expected = math.exp(s.log_det - log_det(delete_row_col(s.entries, 2)))
        assert schur_complement_last(s) == pytest.approx(expected, rel=1e-12)


class TestBergstromGap:
    def test_worked_pair(self):
        # 20/4 - 3/2 - 5/2 = 1 and 20/5 - 3/2 - 5/3 = 5/6
        assert bergstrom_gap(A, B, 0) == pytest.approx(1.0, abs=1e-12)
        assert bergstrom_gap(A, B, 1) == pytest.approx(5.0 / 6.0, abs=1e-12)

    def test_diagonal_pair_equality(self):
        a = SpdMatrix(np.diag([1.0, 2.0, 3.0]))
        b = SpdMatrix(np.diag([0.5, 4.0, 1.5]))
        for i in range(3):
            assert abs(bergstrom_gap(a, b, i)) < 1e-12

    def test_gap_all_matches_per_index(self):
        rng = rng_from_tokens(3, "test-bergstrom")
        a = random_spd(4, rng)
        b = random_spd(4, rng)
        gaps = bergstrom_gap_all(a, b)
        assert gaps.shape == (4,)
        for i in range(4):
            assert gaps[i] == pytest.approx(bergstrom_gap(a, b, i), rel=1e-12)

    def test_index_validation(self):
        with pytest.raises(IndexError):
            bergstrom_gap(A, B, 2)
        with pytest.raises(DimensionError):
            bergstrom_gap(A, SpdMatrix(np.eye(3)), 0)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(2, 7), st.integers(0, 2**32 - 1))
    def test_never_negative(self, n, seed):
        rng = rng_from_tokens(seed, "prop-bergstrom", n)
        a = random_spd(n, rng)
        b = random_spd(n, rng)
        assert bergstrom_gap_all(a, b).min() > -1e-9


class TestKyFanGap:
    def test_k1_equals_last_index_bergstrom(self):
        assert kyfan_gap(A, B, 1) == pytest.approx(bergstrom_gap(A, B, 1), abs=1e-12)

    def test_gap_all(self):
        rng = rng_from_tokens(11, "test-kyfan")
        a = random_spd(5, rng)
        b = random_spd(5, rng)
        gaps = kyfan_gap_all(a, b)
        assert gaps.shape == (4,)
        for k in range(1, 5):
            assert gaps[k - 1] == pytest.approx(kyfan_gap(a, b, k), rel=1e-12)

    def test_k_validation(self):
        with pytest.raises(DimensionError):
            kyfan_gap(A, B, 0)
        with pytest.raises(DimensionError):
            kyfan_gap(A, B, 2)

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
        for k in range(1, 4):
            assert kyfan_gap(ca, cb, k) == pytest.approx(c * kyfan_gap(a, b, k), rel=1e-11)


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
            expected = float(np.exp(_logdet_raw(mixed)) - lam * np.exp(a.log_det)
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

    def test_condition_cap_validation(self):
        with pytest.raises(ValueError):
            random_spd(3, rng_from_tokens(0, "spd"), condition_cap=0.5)

    def test_equality_pair_differs_only_in_last_diagonal(self):
        rng = rng_from_tokens(23, "test-pair")
        a, b = make_bonnesen_equality_pair(4, rng)
        diff = b.entries - a.entries
        assert diff[-1, -1] > 0.0
        off = diff.copy()
        off[-1, -1] = 0.0
        assert np.all(off == 0.0)
