"""Tests for entropy and Fisher-information estimators.

Closed-form oracle values used below (computed by hand from
h = (n ln(2 pi e) + ln det) / 2 and I = tr(cov^-1)):

    h(N(0,1))              = 1.4189385332046727
    h(N(0,I2))             = 2.8378770664093453
    h(N(0,4))              = 2.1120857137646181
    h(N(0,I3))             = 4.2568155996140180
    h(X_2 | X_1) for cov [[2,1],[1,2]] = 0.5 ln(2 pi e * 1.5)
                           = 1.6216710872587540
    tr([[2,1],[1,2]]^-1)   = 4/3
    2 pi e                 = 17.079468445347132
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epicheck import (
    CheckConfig,
    DimensionError,
    GaussianComponent,
    GaussianMixture,
    ScalarEstimate,
    check_epi,
    conditional_entropy,
    conditional_fisher_last,
    entropy,
    entropy_power,
    fisher,
    knn_entropy,
    projective_fisher,
    random_mixture,
    random_spd,
)
from epicheck import estimators
from epicheck.checks import _looks
from epicheck.estimators import (
    ENTROPY, FISHER, LN_2PIE, PREFIXED, _closed, _delta, _mean_and_se, _row, _sampled,
    _term_looks, _terms,
)
from epicheck.mixtures import BLOCK, LN_2PI, _labels, _logsumexp
from epicheck.seeding import rng_from_tokens

H_STD_1D = 1.4189385332046727
H_STD_2D = 2.8378770664093453
H_VAR4_1D = 2.1120857137646181
H_STD_3D = 4.256815599614018
H_COND_WORKED = 1.621671087258754
TWO_PI_E = 17.079468445347132

COV_WORKED = [[2.0, 1.0], [1.0, 2.0]]


def gauss(cov, mean=None) -> GaussianMixture:
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    if mean is None:
        mean = np.zeros(cov.shape[0])
    return GaussianMixture.gaussian(mean, cov)


def split(gm: GaussianMixture) -> GaussianMixture:
    """A pure Gaussian as two equal halves, which take the Monte-Carlo route
    while the answer is known; a mixture as it is."""
    return GaussianMixture([0.5, 0.5], gm.components * 2) if gm.is_gaussian else gm


class TestScalarEstimate:
    def test_invariants(self):
        with pytest.raises(ValueError):
            ScalarEstimate(float("nan"), 0.0, 0, "closed_form")
        with pytest.raises(ValueError):
            ScalarEstimate(1.0, -0.1, 10, "plug_in_mc")
        with pytest.raises(ValueError):
            ScalarEstimate(1.0, 0.5, 0, "closed_form")

    @pytest.mark.parametrize("se", [math.nan, math.inf])
    def test_non_finite_std_error_refused(self, se):
        # a NaN passed the old `< 0` test, and entropy_power then gave a NaN stderr
        with pytest.raises(ValueError, match="finite"):
            ScalarEstimate(1.0, se, 10, "plug_in_mc")


class TestGaussianEntropy:
    def test_worked_values(self):
        assert entropy(gauss([[1.0]])).value == pytest.approx(H_STD_1D, rel=1e-12)
        assert entropy(gauss(np.eye(2))).value == pytest.approx(H_STD_2D, rel=1e-12)
        assert entropy(gauss([[4.0]])).value == pytest.approx(H_VAR4_1D, rel=1e-12)

    def test_closed_form_tagging(self):
        est = entropy(gauss([[1.0]]))
        assert est.method == "closed_form" and est.std_error == 0.0


class TestEntropyPower:
    def test_standard_normal_gives_two_pi_e(self):
        for n in (1, 2, 5):
            h = ScalarEstimate(n * H_STD_1D, 0.0, 0, "closed_form")
            assert entropy_power(h, n).value == pytest.approx(TWO_PI_E, rel=1e-12)

    def test_zero_entropy(self):
        assert entropy_power(ScalarEstimate(0.0, 0.0, 0, "closed_form"), 1).value == 1.0

    def test_delta_method_stderr(self):
        h = ScalarEstimate(1.0, 0.01, 100, "plug_in_mc")
        est = entropy_power(h, 2)
        assert est.std_error == pytest.approx(est.value * 0.01, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_complex_step_matches_analytic_stderr(self, n):
        h = ScalarEstimate(1.3, 0.02, 1000, "plug_in_mc")
        est = entropy_power(h, n)
        assert est.std_error == pytest.approx((2.0 / n) * est.value * 0.02, rel=1e-14)

    def test_overflow_raises_without_warning(self):
        # math.exp's rule: an entropy power beyond the doubles is an OverflowError
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError):
                entropy_power(ScalarEstimate(1e3), 1)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000), st.floats(0.2, 5.0))
    def test_scale_law(self, seed, t):
        # N(tX) = t^2 N(X)
        gm = random_mixture(2, rng_from_tokens(seed, "prop-npow"))
        rng1 = rng_from_tokens(seed, "prop-npow", "base")
        base = entropy_power(entropy(gm, 3000, rng1), 2)
        rng2 = rng_from_tokens(seed, "prop-npow", "base")
        scaled = entropy_power(entropy(gm.scale(t), 3000, rng2), 2)
        # identical streams make the ratio exact up to float roundoff
        assert scaled.value == pytest.approx(t * t * base.value, rel=1e-9)


class TestDelta:
    def test_linear_fn_with_correlated_covariance(self):
        g = np.array([2.0, -3.0, 0.5])
        root = np.array([[1.0, 0.0, 0.0], [0.6, 0.8, 0.0], [-0.3, 0.2, 0.9]])
        cov = 0.01 * root @ root.T
        value, stderr = _delta(lambda v: 2.0 * v[0] - 3.0 * v[1] + 0.5 * v[2], [1.0, 2.0, 3.0], cov)
        assert value == pytest.approx(2.0 - 6.0 + 1.5, rel=1e-15)
        assert stderr == pytest.approx(math.sqrt(g @ cov @ g), rel=1e-14)

    def test_nonlinear_gradient_is_exact(self):
        # d/dv of v0 exp(v1) / v2**2 at (2, 0.5, 3)
        mu, var = np.array([2.0, 0.5, 3.0]), np.array([0.1, 0.2, 0.3])
        e = math.exp(0.5)
        g = np.array([e / 9.0, 2.0 * e / 9.0, -2.0 * 2.0 * e / 27.0])
        _, stderr = _delta(lambda v: v[0] * np.exp(v[1]) / v[2] ** 2, mu, np.diag(var))
        assert stderr == pytest.approx(math.sqrt(np.sum(g**2 * var)), rel=1e-14)

    def test_zero_covariance_skips_the_gradient(self):
        calls = []

        def fn(v):
            calls.append(v.dtype)
            return np.exp(v[0]) * v[1]

        value, stderr = _delta(fn, [0.5, 2.0], np.zeros((2, 2)))
        assert value == pytest.approx(2.0 * math.exp(0.5), rel=1e-15)
        assert stderr == 0.0 and type(stderr) is float
        assert calls == [np.dtype(float)]

    @pytest.mark.parametrize("fn", [lambda v: np.exp(v[0]), lambda v: v[0] - np.exp(v[0])])
    def test_non_finite_value_is_an_overflow(self, fn):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError):
                _delta(fn, [1e3], [[1.0]])


class TestMcEntropy:
    def test_gaussian_within_three_sigma(self):
        gm = split(gauss(np.eye(3)))
        est = entropy(gm, 50_000, rng_from_tokens(0, "mc-h"))
        assert abs(est.value - H_STD_3D) <= 3.0 * est.std_error
        assert est.method == "plug_in_mc" and est.n_samples == 50_000

    def test_mixture_agrees_with_high_m(self):
        gm = GaussianMixture(
            [0.5, 0.5],
            [([0.0, 0.0], np.eye(2)), ([12.0, 0.0], np.eye(2))],
        )
        est = entropy(gm, 100_000, rng_from_tokens(1, "mc-h"))
        # far-separated equal modes: h = ln 2 + h(N(0,I2)) up to ~e^-18 overlap
        assert est.value == pytest.approx(math.log(2.0) + H_STD_2D, abs=0.02)

    def test_bit_identical_under_seed(self):
        gm = split(gauss(COV_WORKED))
        a = entropy(gm, 5000, rng_from_tokens(2, "mc-h"))
        b = entropy(gm, 5000, rng_from_tokens(2, "mc-h"))
        assert a.value == b.value and a.std_error == b.std_error

    def test_entropy_dispatcher(self):
        gm = gauss(COV_WORKED)
        assert entropy(gm, 1000, None).method == "closed_form"
        mix = GaussianMixture([0.5, 0.5], [([0.0], [[1.0]]), ([1.0], [[2.0]])])
        with pytest.raises(ValueError, match="generator"):
            entropy(mix, 1000, None)


class TestKnnEntropy:
    def test_gaussian_oracle(self):
        pts = rng_from_tokens(3, "knn").normal(size=(20_000, 1))
        est = knn_entropy(pts, k=4)
        assert est.method == "knn"
        assert abs(est.value - H_STD_1D) <= 3.0 * est.std_error + 0.05

    def test_translation_invariance(self):
        pts = rng_from_tokens(4, "knn").normal(size=(2000, 2))
        a = knn_entropy(pts, k=4)
        b = knn_entropy(pts + 17.5, k=4)
        assert b.value == pytest.approx(a.value, abs=1e-9)

    def test_duplicates_warn(self):
        pts = np.zeros((50, 2))
        pts[25:] = 1.0
        with pytest.warns(RuntimeWarning, match="duplicate"):
            est = knn_entropy(pts, k=2)
        assert math.isfinite(est.value)

    def test_k_validation(self):
        pts = rng_from_tokens(5, "knn").normal(size=(10, 1))
        with pytest.raises(ValueError):
            knn_entropy(pts, k=10)
        with pytest.raises(ValueError):
            knn_entropy(pts, k=0)

    @pytest.mark.parametrize("k", [2.5, 2.0, True])
    def test_non_integer_k_refused(self, k):
        # k = 2.5 used to fail inside numpy with an IndexError
        pts = rng_from_tokens(5, "knn").normal(size=(40, 2))
        with pytest.raises(ValueError, match="integer"):
            knn_entropy(pts, k=k)

    def test_numpy_integer_k_accepted(self):
        pts = rng_from_tokens(5, "knn").normal(size=(40, 2))
        assert knn_entropy(pts, k=np.int64(3)) == knn_entropy(pts, k=3)


class TestConditionalEntropy:
    def test_independent_coordinates(self):
        est = conditional_entropy(gauss(np.eye(3)), range(2))
        assert est.value == pytest.approx(H_STD_1D, rel=1e-12)

    def test_worked_schur_value(self):
        est = conditional_entropy(gauss(COV_WORKED), range(1))
        assert est.value == pytest.approx(H_COND_WORKED, rel=1e-12)

    def test_general_conditioning_set(self):
        cov = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, -0.2], [0.5, -0.2, 2.0]])
        est = conditional_entropy(gauss(cov), [1], 1000, None)
        # h(X_0, X_2 | X_1) = h(X) - h(X_1)
        expected = entropy(gauss(cov)).value - (
            0.5 * (math.log(2.0 * math.pi * math.e) + math.log(3.0))
        )
        assert est.value == pytest.approx(expected, rel=1e-12)

    def test_subset_validation(self):
        gm = gauss(np.eye(3))
        with pytest.raises(DimensionError):
            conditional_entropy(gm, [], 1000, None)
        with pytest.raises(DimensionError):
            conditional_entropy(gm, [0, 1, 2], 1000, None)
        with pytest.raises(IndexError):
            conditional_entropy(gm, [3], 1000, None)
        with pytest.raises(ValueError):
            conditional_entropy(gm, [0, 0], 1000, None)

    @pytest.mark.parametrize("given", [[0.9], [1.0], [False]])
    def test_non_integer_coordinates_refused(self, given):
        # [0.9] used to condition on coordinate 0
        with pytest.raises(ValueError, match="integers"):
            conditional_entropy(gauss(np.eye(3)), given, 1000, None)

    def test_numpy_integer_coordinates_accepted(self):
        gm = gauss(np.diag([1.0, 2.0, 3.0]))
        expected = conditional_entropy(gm, [1], 1000, None).value
        assert conditional_entropy(gm, np.array([1]), 1000, None).value == expected
        assert conditional_entropy(gm, range(1, 2), 1000, None).value == expected

    def test_mc_route_paired_and_calibrated(self):
        mix = GaussianMixture(
            [0.6, 0.4], [([0.0, 0.0], COV_WORKED), ([1.0, 1.0], np.eye(2))]
        )
        est = conditional_entropy(mix, range(1), 40_000, rng_from_tokens(6, "cond"))
        assert est.method == "plug_in_mc"
        # conditioning reduces entropy: h(X_n | rest) <= h(X_n)
        marg = mix.marginal([1])
        upper = entropy(marg, 40_000, rng_from_tokens(7, "cond"))
        assert est.value <= upper.value + 3.0 * (est.std_error + upper.std_error)

    def test_dim_validation(self):
        with pytest.raises(DimensionError):
            conditional_entropy(gauss([[1.0]]), range(0))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 8), st.integers(0, 2**32 - 1), st.booleans())
    def test_closed_forms_match_block_slogdet(self, n, seed, spread):
        # leading blocks read the joint factor's pivots, other blocks are
        # factored; both against LU log-determinants of the explicit block,
        # to 16 n cond eps in each log-det, fixed before the test first ran
        rng = rng_from_tokens(seed, "closed-blocks", n)
        if spread:  # condition number exactly 1e8
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            cov = (q * np.geomspace(1.0, 1e8, n)) @ q.T
            cov = 0.5 * (cov + cov.T)
        else:
            cov = random_spd(n, rng, condition_cap=1e8).entries
        g = GaussianComponent(np.zeros(n), cov)
        tol = 16 * n * float(np.linalg.cond(cov)) * np.finfo(float).eps
        ld = np.linalg.slogdet(cov)[1]
        for keep in [list(range(k)) for k in range(1, n)] + [list(range(1, n)), [n - 1]]:
            ld_keep = np.linalg.slogdet(cov[np.ix_(keep, keep)])[1]
            marginal, given_keep = (e.value for e in _closed(
                [("marginal_entropy", keep), ("conditional_entropy", keep)], g))
            assert abs(marginal - 0.5 * (len(keep) * LN_2PIE + ld_keep)) <= 0.5 * tol
            assert abs(given_keep - 0.5 * ((n - len(keep)) * LN_2PIE + ld - ld_keep)) <= tol


class TestFisher:
    def test_gaussian_closed_forms(self):
        assert fisher(gauss(np.eye(3))).value == pytest.approx(3.0, rel=1e-12)
        assert fisher(gauss([[4.0]])).value == pytest.approx(0.25, rel=1e-12)
        assert fisher(gauss(COV_WORKED)).value == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_mc_fisher_calibrated(self):
        gm = split(gauss(np.diag([1.0, 4.0])))
        est = fisher(gm, 50_000, rng_from_tokens(8, "fisher"))
        assert abs(est.value - 1.25) <= 3.0 * est.std_error

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000), st.floats(0.5, 2.0))
    def test_scaling_law(self, seed, t):
        # I(tX) = I(X) / t^2, exact when streams are shared
        gm = split(random_mixture(2, rng_from_tokens(seed, "prop-fisher")))
        a = fisher(gm, 4000, rng_from_tokens(seed, "prop-fisher", "r"))
        b = fisher(gm.scale(t), 4000, rng_from_tokens(seed, "prop-fisher", "r"))
        assert b.value == pytest.approx(a.value / t**2, rel=1e-9)

    def test_nonnegative(self):
        gm = GaussianMixture(
            [0.5, 0.5], [([0.0, 0.0], COV_WORKED), ([2.0, -1.0], np.eye(2))]
        )
        est = fisher(gm, 2000, rng_from_tokens(9, "fisher"))
        assert est.value >= 0.0


class TestProjectiveFisher:
    def test_closed_form_values(self):
        gm = gauss(np.eye(2))
        assert projective_fisher(gm, [0.0, 1.0], 10, None).value == pytest.approx(1.0)
        gm = gauss(COV_WORKED)
        est = projective_fisher(gm, [0.0, 1.0], 10, None)
        assert est.value == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert est.method == "closed_form"

    def test_unit_vector_required(self):
        gm = gauss(np.eye(2))
        with pytest.raises(ValueError, match="unit vector"):
            projective_fisher(gm, [0.0, 2.0], 10, None)
        with pytest.raises(DimensionError):
            projective_fisher(gm, [1.0], 10, None)

    @pytest.mark.parametrize(
        "u", [[math.nan, 0.0], [math.nan, 1.0], [math.inf, 0.0], [math.inf, -math.inf]]
    )
    def test_non_finite_direction_refused_before_drawing(self, u):
        # |u|^2 - 1 is NaN for a NaN entry, and a NaN fails every comparison: the
        # direction used to pass and the estimate failed late, after m draws
        mix = GaussianMixture([0.5, 0.5], [([0.0, 0.0], COV_WORKED), ([1.0, 0.0], np.eye(2))])
        rng = rng_from_tokens(20, "proj")
        with pytest.raises(ValueError, match="unit vector"):
            projective_fisher(mix, u, 1000, rng)
        assert rng.random() == rng_from_tokens(20, "proj").random()  # nothing was drawn

    def test_dominated_by_full_fisher(self):
        mix = GaussianMixture(
            [0.5, 0.5], [([0.0, 0.0], COV_WORKED), ([1.0, 0.0], np.eye(2))]
        )
        u = np.array([3.0, 4.0]) / 5.0
        proj = projective_fisher(mix, u, 20_000, rng_from_tokens(10, "proj"))
        full = fisher(mix, 20_000, rng_from_tokens(11, "proj"))
        assert proj.value <= full.value + 3.0 * (proj.std_error + full.std_error)


class TestConditionalFisherLast:
    def test_identity_covariance(self):
        est = conditional_fisher_last(
            gauss(np.eye(2)), m_outer=400, m_inner=400, rng=rng_from_tokens(12, "cf")
        )
        assert abs(est.value - 1.0) <= 3.0 * est.std_error + 1e-9

    def test_equals_inverse_schur_for_gaussian(self):
        est = conditional_fisher_last(
            gauss(COV_WORKED), m_outer=500, m_inner=800, rng=rng_from_tokens(13, "cf")
        )
        assert abs(est.value - 1.0 / 1.5) <= 3.0 * est.std_error + 0.01

    def test_matches_projective_on_mixture(self):
        mix = GaussianMixture(
            [0.5, 0.5], [([0.0, 0.0], COV_WORKED), ([1.0, -1.0], [[1.0, 0.0], [0.0, 2.0]])]
        )
        cond = conditional_fisher_last(
            mix, m_outer=800, m_inner=2000, rng=rng_from_tokens(14, "cf")
        )
        proj = projective_fisher(mix, [0.0, 1.0], 100_000, rng_from_tokens(15, "cf"))
        combined = math.hypot(cond.std_error, proj.std_error)
        assert abs(cond.value - proj.value) <= 3.0 * combined + 0.02

    @pytest.mark.parametrize("m_outer, m_inner", [(0, 10), (10, 0)])
    def test_sample_counts_must_be_positive(self, m_outer, m_inner):
        with pytest.raises(ValueError, match="positive"):
            conditional_fisher_last(gauss(np.eye(2)), m_outer, m_inner, rng_from_tokens(0, "cf"))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_matches_per_prefix_loop(self, dim):
        # one conditional mixture per prefix, drawn from and scored in turn:
        # the batched estimator must consume the generator in the same order
        check_per_prefix_loop(dim, 50, 50)

    @pytest.mark.parametrize("m_outer, m_inner", [(50, 300), (3, BLOCK + 1)])
    def test_matches_per_prefix_loop_across_blocks(self, m_outer, m_inner):
        # prefixes that fill several blocks of points, the last one short, or one block each
        check_per_prefix_loop(3, m_outer, m_inner)


def nine_part_law(dim: int) -> GaussianMixture:
    """K = 9 components in dimension ``dim``, a 3 x 3 convolution."""
    rng = rng_from_tokens(16, "cf-law", dim)
    parts = []
    for _ in range(2):
        comps = [(rng.normal(size=dim), random_spd(dim, rng, 100.0)) for _ in range(3)]
        parts.append(GaussianMixture([0.2, 0.3, 0.5], comps))
    gm = parts[0].convolve(parts[1])
    assert gm.n_components == 9
    return gm


def check_per_prefix_loop(dim: int, m_outer: int, m_inner: int) -> None:
    """conditional_fisher_last on a K = 9 law against one conditional_slice
    per prefix, drawn from and scored in turn."""
    gm = nine_part_law(dim)
    rng = rng_from_tokens(17, "cf", dim)
    prefixes = gm.marginal(range(dim - 1)).sample(rng, m_outer)
    vals = []
    for prefix in prefixes:
        cond = gm.conditional_slice(prefix)
        s = cond.score(cond.sample(rng, m_inner))
        vals.append(np.mean(s * s))
    est = conditional_fisher_last(gm, m_outer, m_inner, rng_from_tokens(17, "cf", dim))
    assert est.value == pytest.approx(np.mean(vals), rel=1e-12)
    assert est.std_error == pytest.approx(np.std(vals, ddof=1) / np.sqrt(m_outer), rel=1e-12)
    assert est.n_samples == m_outer


def all_inner_draws_first(gm, m_outer, m_inner, rng) -> ScalarEstimate:
    """conditional_fisher_last as it was before its inner draws moved into the
    block loop: every prefix's inner draws in one (m_outer, m_inner) array,
    then the prefixes' 1-D conditional mixtures block by block."""
    prefixes = gm.marginal(range(gm.dim - 1)).sample(rng, m_outer)
    log_w, means, sds = gm._condition_last(prefixes)
    weights = np.exp(log_w)
    weights /= weights.sum(axis=0)
    pts = np.empty((m_outer, m_inner))
    for j in range(m_outer):
        idx = _labels(rng, weights[:, j], m_inner)
        pts[j] = means[idx, j] + rng.standard_normal(m_inner) * sds[idx]
    step = max(1, BLOCK // m_inner)
    width = min(m_outer, step) * m_inner
    terms, scores = np.empty(gm.n_components * width), np.empty(gm.n_components * width)
    total, mean_score = np.empty(width), np.empty(width)
    vals = np.empty(m_outer)
    for lo in range(0, m_outer, step):
        block = pts[lo:lo + step]
        b = block.size
        a = terms[:gm.n_components * b].reshape(-1, 1, b)
        g = scores[:gm.n_components * b].reshape(-1, 1, b)
        for c, (lw, mu, sd) in enumerate(zip(log_w[:, lo:lo + step], means[:, lo:lo + step], sds)):
            u, t = g[c].reshape(block.shape), a[c].reshape(block.shape)
            np.subtract(block, mu[:, None], out=u)
            u /= sd
            np.multiply(u, u, out=t)
            t *= -0.5
            t += (lw - 0.5 * LN_2PI - np.log(sd))[:, None]
            u /= sd
        _logsumexp(a, total[None, :b], g, mean_score[None, :b])
        np.square(mean_score[:b], out=mean_score[:b])
        vals[lo:lo + step] = np.mean(mean_score[:b].reshape(block.shape), axis=1)
    return _mean_and_se(vals, "plug_in_mc")


def far_pair() -> GaussianMixture:
    """Two components so far apart that a prefix near one leaves the other a
    posterior weight of exactly 0."""
    return GaussianMixture([0.4, 0.6], [([0.0, 0.0], 0.01 * np.eye(2)),
                                        ([100.0, 3.0], [[1.0, 0.5], [0.5, 2.0]])])


class TestConditionalFisherDraws:
    """conditional_fisher_last draws each block's inner points inside its
    block loop: the estimate and the generator's last state are bitwise those
    of drawing every prefix's points first, and memory does not grow with
    m_outer * m_inner."""

    @pytest.mark.parametrize("m_outer, m_inner", [
        (BLOCK + 5, 1), (25, 800), (3, BLOCK), (3, BLOCK + 1),
    ])
    @pytest.mark.parametrize("law", ["nine", "far"])
    def test_bitwise_equal_to_drawing_every_prefix_first(self, law, m_outer, m_inner):
        gm = nine_part_law(3) if law == "nine" else far_pair()
        rng, expected = rng_from_tokens(30, "cf-draws"), rng_from_tokens(30, "cf-draws")
        est = conditional_fisher_last(gm, m_outer, m_inner, rng)
        assert est == all_inner_draws_first(gm, m_outer, m_inner, expected)
        np.testing.assert_equal(rng.bit_generator.state, expected.bit_generator.state)

    def test_far_pair_weights_underflow(self):
        # the law above reaches the labels' zero-weight edges
        gm = far_pair()
        prefixes = gm.marginal([0]).sample(rng_from_tokens(30, "cf-draws"), 25)
        weights = np.exp(gm._condition_last(prefixes)[0])
        assert (weights == 0.0).any(axis=0).all()

    def test_memory_does_not_grow_with_m_outer(self):
        # past vals and each prefix's K posterior log-weights, means and label
        # edges, m_outer adds less than one prefix's inner draws
        gm = GaussianMixture([0.3, 0.7], [([0.0, 0.0], COV_WORKED),
                                          ([1.5, -0.5], [[1.0, 0.0], [0.0, 0.5]])])
        m_inner = 800
        conditional_fisher_last(gm, 2, 2, rng_from_tokens(0, "cf-warm"))  # binds the BLAS

        def held(m_outer):
            tracemalloc.start()
            try:
                conditional_fisher_last(gm, m_outer, m_inner, rng_from_tokens(31, "cf-memory"))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak - m_outer * 8 * (3 * gm.n_components + 1)

        assert held(6400) <= held(800) + 8 * m_inner


class TestScalingInvariant:
    # statistical bound, so seeds are pinned: hypothesis-style seed search
    # would eventually find (and lock onto) legitimate >3-sigma draws
    @pytest.mark.parametrize("seed", range(8))
    def test_entropy_shift_under_linear_map(self, seed):
        # h(AX) - h(X) = ln |det A| within 3 sigma of independent estimates
        rng = rng_from_tokens(seed, "scale-h")
        gm = split(random_mixture(2, rng))
        a = rng.normal(size=(2, 2))
        while abs(np.linalg.det(a)) < 0.3:
            a = rng.normal(size=(2, 2))
        h0 = entropy(gm, 30_000, rng_from_tokens(seed, "scale-h", "h0"))
        h1 = entropy(gm.linear_map(a), 30_000, rng_from_tokens(seed, "scale-h", "h1"))
        shift = math.log(abs(np.linalg.det(a)))
        tol = 3.0 * math.hypot(h0.std_error, h1.std_error)
        assert abs((h1.value - h0.value) - shift) <= tol


# --------------------------------------------------------------------------
# the term engine


COV_3D = np.array([[2.0, 0.3, 0.1], [0.3, 1.0, -0.2], [0.1, -0.2, 1.5]])
U_3D = np.array([0.6, 0.0, 0.8])


def three_d_mixture() -> GaussianMixture:
    return GaussianMixture([0.3, 0.7], [(np.zeros(3), np.eye(3)), ([1.5, -0.5, 1.0], COV_3D)])


# each statistic of the engine with the public estimator of it
PUBLIC = {
    "entropy": (ENTROPY, entropy),
    "conditional_leading": (
        ("conditional_entropy", [0, 1]), lambda gm, m, rng: conditional_entropy(gm, [0, 1], m, rng)
    ),
    "conditional_reordered": (
        ("conditional_entropy", [1]), lambda gm, m, rng: conditional_entropy(gm, [1], m, rng)
    ),
    "fisher": (FISHER, fisher),
    "projective_fisher": (
        ("projective_fisher", U_3D), lambda gm, m, rng: projective_fisher(gm, U_3D, m, rng)
    ),
}


def streams(seed):
    return lambda role: rng_from_tokens(seed, "engine", role)


class TestTermEngine:
    @pytest.mark.parametrize("law", ["mixture", "gaussian"])
    @pytest.mark.parametrize("name", sorted(PUBLIC))
    def test_statistic_matches_public_estimator(self, law, name):
        stat, public = PUBLIC[name]
        gm = three_d_mixture() if law == "mixture" else gauss(COV_3D, [1.0, 2.0, 3.0])
        (est,), cov = _terms([(gm, "r", (stat,))], 3000, streams(18))
        ref = public(gm, 3000, rng_from_tokens(18, "engine", "r"))
        assert (est.value, est.std_error, est.n_samples, est.method) == (
            ref.value, ref.std_error, ref.n_samples, ref.method
        )
        # a lone statistic keeps its estimator's CLT bar on the diagonal
        assert cov.tolist() == [[ref.std_error**2]]
        assert (est.method == "closed_form") == (law == "gaussian")

    def test_shared_draw_group_matches_separate_rows(self):
        gm, m = three_d_mixture(), 4000
        stats = (ENTROPY, ("marginal_entropy", [0, 1]), FISHER, ("projective_fisher", U_3D),
                 ("score_moment", (0, 2)))
        ests, cov = _terms([(gm, "g", stats)], m, streams(19))
        pts = gm.sample(rng_from_tokens(19, "engine", "g"), m)
        score = gm.score(pts)
        rows = np.stack([
            -gm.log_density(pts),
            -gm.marginal([0, 1]).log_density(pts[:, :2]),
            np.einsum("ij,ij->i", score, score),
            (score @ U_3D) ** 2,
            score[:, 0] * score[:, 2],
        ])
        assert [e.value for e in ests] == pytest.approx(rows.mean(axis=1), rel=1e-12)
        assert cov == pytest.approx(np.cov(rows, ddof=1) / m, rel=1e-9, abs=1e-15)
        assert [e.std_error for e in ests] == pytest.approx(np.sqrt(np.diag(cov)), rel=1e-15)
        assert all(e.n_samples == m and e.method == "plug_in_mc" for e in ests)

    def test_reordered_prefix_keeps_the_score_in_law_coordinates(self):
        # conditioning on coordinate 1 evaluates the law with it first; the
        # Fisher rows must still read the score in the law's own coordinates
        gm, m = three_d_mixture(), 3000
        stats = (("conditional_entropy", [1]), FISHER, ("projective_fisher", U_3D))
        ests, _ = _terms([(gm, "s", stats)], m, streams(20))
        for est, (_, public) in zip(ests, (PUBLIC["conditional_reordered"], PUBLIC["fisher"],
                                           PUBLIC["projective_fisher"])):
            ref = public(gm, m, rng_from_tokens(20, "engine", "s"))
            assert est.value == pytest.approx(ref.value, rel=1e-12)

    def test_marginal_closed_form(self):
        g = gauss(COV_3D, [1.0, 2.0, 3.0])
        (est,), _ = _terms([(g, "m", (("marginal_entropy", [0, 2]),))], 10, streams(0))
        assert est == entropy(gauss(COV_3D[np.ix_([0, 2], [0, 2])], [1.0, 3.0]))
        assert est.value < entropy(g).value

    def test_score_moments_closed_form(self):
        # (Sigma^-1)_ij against numpy's inverse; their trace is the Fisher information
        pairs = [(i, j) for i in range(3) for j in range(i, 3)]
        stats = [("score_moment", ij) for ij in pairs] + [FISHER]
        ests, cov = _terms([(gauss(COV_3D), "s", stats)], 10, streams(0))
        inv = np.linalg.inv(COV_3D)
        assert [e.value for e in ests[:-1]] == pytest.approx([inv[ij] for ij in pairs], rel=1e-12)
        trace = sum(e.value for (i, j), e in zip(pairs, ests) if i == j)
        assert trace == pytest.approx(ests[-1].value, rel=1e-14)
        assert not cov.any()

    def test_two_prefixes_in_one_group_refused(self):
        stats = (("conditional_entropy", [1]), ("marginal_entropy", [0]))
        with pytest.raises(ValueError, match="prefix"):
            _terms([(three_d_mixture(), "p", stats)], 100, streams(0))

    def test_covariance_is_block_diagonal(self):
        groups = [
            (three_d_mixture(), "a", (ENTROPY, FISHER)),
            (gauss(COV_3D), "b", (ENTROPY, FISHER)),
            (three_d_mixture(), "c", (ENTROPY,)),
        ]
        ests, cov = _terms(groups, 2000, streams(21))
        assert cov.shape == (5, 5)
        assert cov[:2, :2].all() and not cov[:2, 2:].any() and not cov[2:4].any()
        assert cov[4, 4] == ests[4].std_error**2 and not cov[4, :4].any()
        assert ests[2] == entropy(gauss(COV_3D))

    def test_gaussian_groups_make_no_generator(self):
        def refuse(role):
            raise AssertionError(f"a generator was made for role {role!r}")

        ests, cov = _terms([(gauss(COV_3D), "x", (ENTROPY, FISHER))], 100, refuse)
        assert not cov.any() and all(e.method == "closed_form" for e in ests)
        with pytest.raises(AssertionError, match="role"):
            _terms([(three_d_mixture(), "x", (ENTROPY,))], 100, refuse)

    def test_fisher_group_holds_no_second_point_array(self):
        # the score is written over the placed points and each row into its
        # slice: beyond an entropy group on the same law, a Fisher group
        # holds only the K whitened blocks its score needs
        gm, m = nine_part_mixture(), 100_000
        _terms([(gm, "w", (FISHER,))], 10, streams(0))  # binds the BLAS

        def peak(stat):
            tracemalloc.start()
            try:
                _terms([(gm, "p", (stat,))], m, streams(44))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        extra = peak(FISHER) - peak(ENTROPY)
        assert extra <= gm.n_components * gm.dim * BLOCK * 8 < m * gm.dim * 8

    def test_mc_route_needs_a_generator(self):
        with pytest.raises(ValueError, match="generator"):
            entropy(three_d_mixture(), 100, None)
        with pytest.raises(ValueError, match="generator"):
            fisher(split(gauss(COV_3D)), 100, None)


def nine_part_mixture() -> GaussianMixture:
    """K = 9 components in dimension 3, the shape of a 3 x 3 convolution."""
    rng = rng_from_tokens(0, "looks-nine")
    raw = rng.uniform(0.5, 1.5, size=9)
    comps = [(rng.normal(0.0, 2.0, size=3), random_spd(3, rng, 100.0)) for _ in range(9)]
    return GaussianMixture(raw / raw.sum(), comps)


def kernel_rows(gm, stats, pts):
    """The per-sample rows of ``stats`` from one ``_kernel`` call of ``gm`` at ``pts``."""
    prefix = next((list(arg) for kind, arg in stats if kind in PREFIXED), [])
    order = prefix + [i for i in range(gm.dim) if i not in prefix]
    law = gm if order == list(range(gm.dim)) else gm.marginal(order)
    scored = any(kind.endswith("fisher") or kind == "score_moment" for kind, _ in stats)
    log_f, log_prefix, score = law._kernel(pts if law is gm else pts[:, order], len(prefix), scored)
    if scored and law is not gm:
        score = score[:, np.argsort(order)]
    return [_row(stat, log_f, log_prefix, score) for stat in stats]


def one_shot(gm, stats, m, rng):
    """One draw group's means and covariance from one ``sample`` and one
    ``_kernel`` call over all m draws."""
    rows = kernel_rows(gm, stats, gm.sample(rng, m))
    if len(rows) == 1:
        est = _mean_and_se(rows[0], "plug_in_mc")
        return [est.value], [est.std_error], np.array([[est.std_error**2]])
    cov = np.cov(rows, ddof=1) / m
    return [float(np.mean(r)) for r in rows], list(np.sqrt(cov.diagonal())), cov


class TestLookIdentity:
    """Looks never change draws: a draw group extended look by look ends on
    the means and covariance of one ``sample`` and one ``_kernel`` call."""

    @pytest.mark.parametrize("m", [BLOCK - 1, BLOCK, BLOCK + 1, 4 * BLOCK + 7, 100_000])
    def test_extended_groups_match_one_shot(self, m):
        gm = nine_part_mixture()
        groups = [
            (gm, "joint", (ENTROPY, ("marginal_entropy", [0, 1]), FISHER,
                           ("projective_fisher", U_3D))),
            (gm, "reordered", (("conditional_entropy", [1]),)),
            (gm, "fisher", (FISHER,)),
            (gm, "moments", (("score_moment", (0, 1)), ("score_moment", (2, 2)))),
        ]
        looks = _looks(m)
        seen = []
        for ests, cov in _term_looks(groups, looks, streams(22)):
            seen.append(ests[0].n_samples)
        assert seen == looks
        values, errors, blocks = [], [], []
        for _, role, stats in groups:
            v, e, c = one_shot(gm, stats, m, rng_from_tokens(22, "engine", role))
            values += v
            errors += e
            blocks.append(c)
        assert [e.value for e in ests] == values
        assert [e.std_error for e in ests] == errors
        assert all(e.n_samples == m for e in ests)
        assert np.array_equal(cov[:4, :4], blocks[0])
        assert cov[4, 4] == blocks[1][0, 0] and cov[5, 5] == blocks[2][0, 0]
        assert np.array_equal(cov[6:, 6:], blocks[3])

    def test_early_looks_use_the_first_draws(self):
        # a look's estimate is the one-shot estimate on its prefix of the draws
        gm, m = nine_part_mixture(), 4 * BLOCK + 7
        first, *_ = _term_looks([(gm, "p", (ENTROPY,))], _looks(m), streams(23))
        pts = gm.sample(rng_from_tokens(23, "engine", "p"), m)[:BLOCK]
        rows = -gm.log_density(pts)
        assert first[0][0].value == float(np.mean(rows))
        assert first[0][0].n_samples == BLOCK


def smoothed(gm: GaussianMixture, s: float) -> GaussianMixture:
    """The law of X + sqrt(s) Z, with the weights of ``gm``."""
    return GaussianMixture(gm.weights, [(c.mean, c.cov.entries + s * np.eye(gm.dim))
                                        for c in gm.components])


def shared_group():
    """Three laws on one weight vector, with a reordered prefix, a score and a
    multi-statistic law among them."""
    gm = nine_part_mixture()
    laws = (smoothed(gm, 0.1), gm, smoothed(gm, 0.3))
    stats = ((ENTROPY,), (("conditional_entropy", [1]), FISHER), (ENTROPY, FISHER))
    return laws, stats


class TestSharedGroups:
    """A draw group of several laws on one weight vector draws its labels and
    normals once, as ``sample`` of the first law does, and places them
    through each law."""

    @pytest.mark.parametrize("m", [BLOCK - 1, 4 * BLOCK + 7])
    def test_rows_are_each_laws_placement_of_the_sample_draws(self, m):
        laws, stats = shared_group()
        ests, cov = _terms([(laws, "g", stats)], m, streams(40))
        rng = rng_from_tokens(40, "engine", "g")
        idx = _labels(rng, laws[0].weights, m)
        z = rng.standard_normal((m, 3))
        rows = [row for law, law_stats in zip(laws, stats)
                for row in kernel_rows(law, law_stats, law._place(idx, z))]
        assert [e.value for e in ests] == [float(np.mean(row)) for row in rows]
        assert np.array_equal(cov, np.cov(rows, ddof=1) / m)
        assert all(e.n_samples == m and e.method == "plug_in_mc" for e in ests)

    def test_generator_ends_where_sample_leaves_it(self):
        laws, stats = shared_group()
        m = 4 * BLOCK + 7
        rng = rng_from_tokens(41, "shared-end")
        for _ in _sampled(laws, stats, _looks(m), rng):
            pass
        expected = rng_from_tokens(41, "shared-end")
        laws[0].sample(expected, m)
        np.testing.assert_equal(rng.bit_generator.state, expected.bit_generator.state)

    @pytest.mark.parametrize("m", [BLOCK + 1, 4 * BLOCK + 7])
    def test_looks_end_on_the_one_look_run(self, m):
        laws, stats = shared_group()
        groups = [(laws, "g", stats), (three_d_mixture(), "x", (ENTROPY,))]
        *_, (ests, cov) = _term_looks(groups, _looks(m), streams(42))
        one, one_cov = _terms(groups, m, streams(42))
        assert ests == one
        assert np.array_equal(cov, one_cov)

    def test_gaussian_laws_take_the_closed_forms(self):
        def refuse(role):
            raise AssertionError(f"a generator was made for role {role!r}")

        laws = tuple(gauss(COV_3D + s * np.eye(3)) for s in (0.1, 0.2))
        ests, cov = _terms([(laws, "g", ((ENTROPY,), (FISHER, ENTROPY)))], 100, refuse)
        expected = [entropy(laws[0]), fisher(laws[1]), entropy(laws[1])]
        assert ests == expected and not cov.any()

    @pytest.mark.parametrize("other", [
        lambda gm: GaussianMixture(np.roll(gm.weights, 1), gm.components),
        lambda gm: gm.marginal([0, 1]),
    ], ids=["weights", "dimension"])
    def test_laws_must_share_weights_and_dimension(self, other):
        gm = nine_part_mixture()
        with pytest.raises(ValueError, match="one weight vector"):
            _terms([((gm, other(gm)), "g", ((ENTROPY,), (ENTROPY,)))], 100, streams(43))


class TestTooFewDraws:
    """One draw has no error bar: the Monte-Carlo route refuses it rather than
    report a zero standard error that reads as a closed form."""

    @pytest.mark.parametrize("m", [0, 1])
    @pytest.mark.parametrize("name", sorted(PUBLIC))
    def test_public_estimators_refuse(self, name, m):
        _, public = PUBLIC[name]
        with pytest.raises(ValueError, match="at least 2 draws"):
            public(three_d_mixture(), m, rng_from_tokens(24, "few"))

    @pytest.mark.parametrize("m", [0, 1])
    @pytest.mark.parametrize("name", sorted(PUBLIC))
    def test_gaussian_refuses_as_a_mixture_does(self, name, m):
        # the count rule comes before the route: a closed form does not skip it
        _, public = PUBLIC[name]
        with pytest.raises(ValueError, match="at least 2 draws"):
            public(gauss(COV_3D), m, None)

    @pytest.mark.parametrize("estimator", [entropy, fisher])
    def test_forced_monte_carlo_refuses(self, estimator):
        # the split law is how a Gaussian is sent down the Monte-Carlo route
        with pytest.raises(ValueError, match="at least 2 draws"):
            estimator(split(gauss(COV_3D)), 1, rng_from_tokens(24, "few"))

    def test_conditional_fisher_needs_two_outer_draws(self):
        mix = GaussianMixture([0.5, 0.5], [(np.zeros(2), np.eye(2)), ([2.0, 0.0], np.eye(2))])
        with pytest.raises(ValueError, match="at least 2 outer draws"):
            conditional_fisher_last(mix, 1, 5, rng_from_tokens(24, "few"))
        est = conditional_fisher_last(mix, 2, 5, rng_from_tokens(24, "few"))
        assert est.n_samples == 2 and est.std_error > 0.0

    def test_two_draws_carry_an_error_bar(self):
        est = entropy(three_d_mixture(), 2, rng_from_tokens(24, "few"))
        assert est.method == "plug_in_mc" and est.std_error > 0.0


class TestSampleCounts:
    """A count that is not an integer is refused before any draw, as
    ``CheckConfig`` refuses it; numpy integers are counts."""

    @pytest.mark.parametrize("call", [
        lambda gm, rng: entropy(gm, 2.5, rng),
        lambda gm, rng: entropy(gm, 1e5, rng),
        lambda gm, rng: fisher(gm, True, rng),
        lambda gm, rng: conditional_fisher_last(gm, 2.5, 5, rng),
        lambda gm, rng: conditional_fisher_last(gm, 3, True, rng),
    ])
    def test_non_integer_counts_refused_before_drawing(self, call):
        rng = rng_from_tokens(25, "counts")
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="sample counts must be integers"):
            call(three_d_mixture(), rng)
        np.testing.assert_equal(rng.bit_generator.state, state)

    @pytest.mark.parametrize("call", [
        lambda gm: entropy(gm, 2.5, None),
        lambda gm: fisher(gm, True, None),
        lambda gm: conditional_entropy(gm, [0], 1e3, None),
        lambda gm: projective_fisher(gm, U_3D, 2.0, None),
    ])
    def test_gaussian_non_integer_counts_refused(self, call):
        with pytest.raises(ValueError, match="sample counts must be integers"):
            call(gauss(COV_3D))

    def test_numpy_integer_counts_accepted(self):
        gm, rng = three_d_mixture(), rng_from_tokens(25, "counts")
        assert entropy(gm, np.int64(100), rng).n_samples == 100
        assert conditional_fisher_last(gm, np.int64(3), np.int32(4), rng).n_samples == 3


@pytest.fixture
def drawn(monkeypatch):
    """The labels every ``_labels`` call of the term engine returns and the
    rows every ``_place`` call places, in call order.  The rows are copied as
    placed: the kernel writes a look's score over them."""
    seen = {"labels": [], "rows": []}
    labels, place = estimators._labels, GaussianMixture._place

    def spied_labels(*args):
        seen["labels"].append(labels(*args))
        return seen["labels"][-1]

    def spied_place(self, *args, **kwargs):
        rows = place(self, *args, **kwargs)
        seen["rows"].append(rows.copy())
        return rows

    monkeypatch.setattr(estimators, "_labels", spied_labels)
    monkeypatch.setattr(GaussianMixture, "_place", spied_place)
    return seen


def lone_mixture(seed: int, weight: float) -> GaussianMixture:
    """Three components in dimension 3, the first of weight about ``weight``."""
    rng = rng_from_tokens(seed, "lone-law")
    w = np.array([weight, 0.5, 0.5])
    comps = [(rng.normal(0.0, 3.0, size=3), random_spd(3, rng, 1e4)) for _ in range(3)]
    return GaussianMixture(w / w.sum(), comps)


class TestLookLabels:
    """A draw group labels only the draws its looks read: the labels go on
    from a cursor while the generator skips to the normals, so every row and
    the generator's last state are those of ``sample`` on all m draws."""

    def test_looks_draw_their_own_labels(self, drawn):
        gm, m = nine_part_mixture(), 100_000
        rng = rng_from_tokens(26, "look-labels")
        for _ in _sampled(gm, (ENTROPY,), _looks(m), rng):
            pass
        assert [len(idx) for idx in drawn["labels"]] == [BLOCK, 3 * BLOCK, m - 4 * BLOCK]
        expected = rng_from_tokens(26, "look-labels")
        assert np.array_equal(np.concatenate(drawn["labels"]), _labels(expected, gm.weights, m))
        expected = rng_from_tokens(26, "look-labels")
        assert np.array_equal(np.concatenate(drawn["rows"]), gm.sample(expected, m))
        np.testing.assert_equal(rng.bit_generator.state, expected.bit_generator.state)

    def test_far_pair_draws_one_block_of_labels(self, drawn):
        x = GaussianMixture([0.4, 0.6], [(np.zeros(2), np.eye(2)),
                                         ([0.0, 3.0], [[2.0, 0.5], [0.5, 1.0]])])
        rep = check_epi(x, x.scale(3.0), CheckConfig(m=100_000))
        assert rep.verdict == "holds"
        assert [len(idx) for idx in drawn["labels"]] == [BLOCK] * 3  # the sum, x and y laws

    @pytest.mark.parametrize("again", [True, False], ids=["drawn-again", "lone-in-call"])
    def test_component_drawn_once_keeps_the_rows_of_sample(self, drawn, again):
        # _place multiplies a lone row with a partner row, never as a one-row
        # product, so a component drawn once in a look's labels needs no later
        # labels; the seed is one whose lone row a one-row product rounds
        # differently, where this BLAS has one
        m = 4 * BLOCK + 7
        weight = 2.0 / BLOCK if again else 2.0 / m

        def lone_row(seed):
            rng = rng_from_tokens(seed, "lone")
            idx = _labels(rng, lone_mixture(seed, weight).weights, m)
            first, total = (np.count_nonzero(idx[:hi] == 0) for hi in (BLOCK, m))
            if first == 1 and (total > 1) == again:
                return rng.standard_normal((m, 3))[np.argmax(idx == 0)]

        def rounds_apart(seed, row):
            chol_t = lone_mixture(seed, weight).components[0].cov.chol.T
            return not np.array_equal(row @ chol_t, (np.stack([row, row]) @ chol_t)[0])

        rows = {s: row for s in range(200) if (row := lone_row(s)) is not None}
        seed = next((s for s, row in rows.items() if rounds_apart(s, row)), next(iter(rows)))
        gm, rng = lone_mixture(seed, weight), rng_from_tokens(seed, "lone")
        for _ in _sampled(gm, (FISHER,), _looks(m), rng):
            pass
        assert [len(idx) for idx in drawn["labels"]] == [BLOCK, 3 * BLOCK, m - 4 * BLOCK]
        expected = rng_from_tokens(seed, "lone")
        assert np.array_equal(np.concatenate(drawn["rows"]), gm.sample(expected, m))
        np.testing.assert_equal(rng.bit_generator.state, expected.bit_generator.state)

    def test_public_estimators_take_any_generator(self):
        gm = three_d_mixture()
        est = entropy(gm, 1000, np.random.default_rng(0))
        pts = gm.sample(np.random.default_rng(0), 1000)
        assert est.value == float(np.mean(-gm.log_density(pts)))

    def test_several_looks_need_philox(self):
        with pytest.raises(TypeError, match="Philox"):
            list(_term_looks([(three_d_mixture(), "p", (ENTROPY,))], _looks(4 * BLOCK),
                             lambda _role: np.random.default_rng(0)))
