"""Tests for the inequality checkers.

Worked pair used throughout (same as the matrix-level tests):

    A = [[2,1],[1,2]]   det 3, last minor 2, ratio 3/2
    B = [[3,-1],[-1,2]] det 5, last minor 3, ratio 5/3
    A+B = [[5,0],[0,4]] det 20, last minor 5, ratio 4

so the deleted-last gap is 4 - 3/2 - 5/3 = 5/6 and its entropy-power lift
is 2 pi e * 5/6.  At lambda = 1/2 the conditional form compares
ratio((A+B)/2) = 2 against 19/12, a gap of 2 pi e * 5/12.

    2 pi e                 = 17.079468445347132
    2 pi e * 5/6           = 14.232890371122610
    2 pi e * 5/12          =  7.116445185561305
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import log_ndtr, ndtr, ndtri_exp

from epicheck import (
    CheckConfig,
    DimensionError,
    GaussianMixture,
    MarkovTriple,
    PreconditionError,
    SpdMatrix,
    VERDICT_EQUALITY,
    VERDICT_HOLDS,
    VERDICT_INCONCLUSIVE,
    VERDICT_VIOLATED,
    bergstrom_gap_all,
    bonnesen_linear_gap,
    check_blachman_stam,
    check_conditional_epi,
    check_conditional_form,
    check_de_bruijn,
    check_entropic_bergstrom,
    check_entropic_bonnesen,
    check_entropic_kyfan,
    check_epi,
    check_equality_case_bonnesen,
    check_isoperimetric_dominance,
    check_isoperimetric_sharp,
    check_lambda_form,
    check_matrix_bergstrom,
    check_matrix_kyfan,
    check_projective_fisher,
    check_sphere_identity,
    check_stam_recovery,
    check_tm_limit,
    classify,
    compression_map,
    conditional_entropy,
    entropy,
    fisher,
    kyfan_gap_all,
    proportional_markov_triple,
    random_mixture,
    random_spd,
    rng_from_tokens,
)
from epicheck import checks, matrices, runner
from epicheck.checks import REPORT_KEYS
from epicheck.estimators import FISHER, LN_2PIE, _terms
from epicheck.matrices import make_bonnesen_equality_pair
from epicheck.mixtures import BLOCK

TWO_PI_E = 17.079468445347132

COV_A = np.array([[2.0, 1.0], [1.0, 2.0]])
COV_B = np.array([[3.0, -1.0], [-1.0, 2.0]])

CFG = CheckConfig()
CFG_MC = CheckConfig(m=20_000, seed=0)
EPS = np.finfo(float).eps


def gauss(cov, mean=None):
    cov = np.asarray(cov, dtype=float)
    if mean is None:
        mean = np.zeros(cov.shape[0])
    return GaussianMixture.gaussian(mean, cov)


@pytest.fixture
def kernel_rows(monkeypatch):
    """The row count of every mixture kernel call, in call order: the draws
    a check evaluated, so the look its record stopped at."""
    rows = []
    kernel = GaussianMixture._kernel

    def counted(self, pts, *args, **kwargs):
        rows.append(pts.shape[0])
        return kernel(self, pts, *args, **kwargs)

    monkeypatch.setattr(GaussianMixture, "_kernel", counted)
    return rows


def two_part(separation=3.0):
    """Generic 2-component 2-d mixture, mildly non-Gaussian."""
    return GaussianMixture(
        [0.4, 0.6],
        [
            (np.zeros(2), np.eye(2)),
            (np.array([separation, 0.0]), np.array([[2.0, 0.5], [0.5, 1.0]])),
        ],
    )


class TestClassify:
    @pytest.mark.parametrize("m", [1, 0])
    def test_config_needs_two_samples(self, m):
        # one draw has no spread, so its standard error would read as exact
        with pytest.raises(ValueError, match="at least 2"):
            CheckConfig(m=m)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("z", math.nan), ("z", math.inf), ("z", 0.0), ("z", -1.0), ("z", True), ("z", "3"),
            ("abs_tol", math.nan), ("abs_tol", -1e-9), ("eq_tol", math.inf),
            ("rel_stderr_cap", -math.inf), ("rel_stderr_cap", None),
            ("seed", -3), ("seed", 1.5), ("seed", True), ("m", 2.5), ("m", True),
        ],
    )
    def test_config_rejects_bad_verdict_parameters(self, field, value):
        # a NaN z or tolerance makes every comparison in classify false: all `holds`
        with pytest.raises(ValueError, match=field):
            CheckConfig(**{field: value})

    def test_inconclusive_takes_precedence(self):
        # stderr above 10% of the larger side silences even a huge deficit
        assert classify(1.0, 2.0, 0.5, CFG) == VERDICT_INCONCLUSIVE

    def test_violated_needs_gap_below_noise_band(self):
        assert classify(1.0, 2.0, 0.01, CFG) == VERDICT_VIOLATED

    def test_equality_window_is_scale_relative(self):
        assert classify(1.0 + 1e-12, 1.0, 0.0, CFG) == VERDICT_EQUALITY
        assert classify(1e10 + 1.0, 1e10, 0.0, CFG) == VERDICT_EQUALITY
        assert classify(2e10, 1e10, 0.0, CFG) == VERDICT_HOLDS

    def test_holds_outside_equality_window(self):
        assert classify(2.0, 1.0, 0.01, CFG) == VERDICT_HOLDS

    def test_statistical_equality_uses_z_stderr(self):
        # gap of one stderr is well inside the 3-sigma equality band
        assert classify(1.01, 1.0, 0.01, CFG) == VERDICT_EQUALITY

    def test_extra_eq_tol_widens_window(self):
        assert classify(1.5, 1.0, 0.0, CFG) == VERDICT_HOLDS
        assert classify(1.5, 1.0, 0.0, CFG, extra_eq_tol=0.6) == VERDICT_EQUALITY

    def test_tiny_negative_gap_is_not_violated(self):
        assert classify(1.0 - 1e-10, 1.0, 0.0, CFG) != VERDICT_VIOLATED

    @settings(max_examples=300, deadline=None)
    @given(st.floats(-1e8, 1e8), st.floats(-1e8, 1e8), st.floats(0.0, 0.2), st.floats(0.0, 2.0),
           st.lists(st.floats(1e-3, 1e3), min_size=2, max_size=10))
    def test_raising_z_never_lowers_the_verdict(self, lhs, rhs, rel_stderr, rel_extra, zs):
        # as z grows, _window's violation edge falls and its equality edge rises:
        # violated -> holds -> equality_consistent, never back; inconclusive reads
        # no z.  The stderr and extra_eq_tol are drawn on the scale of the sides
        # and of the gap, where z decides the verdict
        stderr, extra = rel_stderr * max(abs(lhs), abs(rhs)), rel_extra * abs(lhs - rhs)
        rank = {VERDICT_VIOLATED: 0, VERDICT_HOLDS: 1, VERDICT_EQUALITY: 2}
        verdicts = [classify(lhs, rhs, stderr, CheckConfig(z=z), extra) for z in sorted(zs)]
        if VERDICT_INCONCLUSIVE in verdicts:
            assert set(verdicts) == {VERDICT_INCONCLUSIVE}
        else:
            ranks = [rank[v] for v in verdicts]
            assert ranks == sorted(ranks)

    @pytest.mark.parametrize(
        "lhs, rhs, stderr",
        [(math.nan, 1.0, 0.0), (1.0, math.nan, 0.0), (1.0, 1.0, math.nan), (math.inf, 1.0, 0.0)],
    )
    def test_non_finite_terms_are_refused(self, lhs, rhs, stderr):
        # NaN fails every comparison, so it used to fall through to `holds`
        with pytest.raises(ValueError, match="finite"):
            classify(lhs, rhs, stderr, CFG)


class TestWindow:
    def test_violation_edge_is_exclusive(self):
        # scale is 1 (both sides below 1): the edge is -(0.25 * 1 + 2 * 0.125) = -0.5
        cfg = CheckConfig(abs_tol=0.25, z=2.0)
        assert not checks._window(0.0, 0.5, 0.125, cfg)[0]
        rhs = math.nextafter(0.5, 1.0)
        assert 0.0 - rhs == math.nextafter(-0.5, -1.0)
        assert checks._window(0.0, rhs, 0.125, cfg)[0]

    def test_extra_widens_only_the_equality_window(self):
        for gap, below in ((0.5, False), (-0.5, True)):
            assert checks._window(1.0 + gap, 1.0, 0.0, CFG) == (below, False)
            assert checks._window(1.0 + gap, 1.0, 0.0, CFG, extra=0.6) == (below, True)

    # dyadic terms make exact ties at both edges of the window common
    DYADIC = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, -0.5, -1.0, -2.0])
    TERM = st.one_of(DYADIC, st.floats(-1e6, 1e6))
    STDERR = st.one_of(st.sampled_from([0.0, 0.0625, 0.125, 0.25]), st.floats(0.0, 1e3))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(TERM, TERM, STDERR), min_size=1, max_size=25),
           st.sampled_from([0.0, 0.25, 0.5]), st.sampled_from([0.0, 0.25, 0.5, 1e-9]),
           st.sampled_from([0.5, 1.0, 2.0, 3.0]), st.sampled_from([0.0, 0.1, 0.25]),
           st.one_of(st.sampled_from([0.0, 0.25, 0.5]), st.floats(0.0, 1e3)), st.booleans())
    def test_arrays_are_read_elementwise_by_the_scalar_rule(
        self, terms, abs_tol, eq_tol, z, cap, extra, one_stderr
    ):
        cfg = CheckConfig(abs_tol=abs_tol, eq_tol=eq_tol, z=z, rel_stderr_cap=cap)
        lhs, rhs, stderr = (np.array(col) for col in zip(*terms))
        if one_stderr:  # one stderr for every point, as the Bonnesen grid passes
            stderr = float(stderr[0])
            terms = [(lo, hi, stderr) for lo, hi, _ in terms]
        below, within = checks._window(lhs, rhs, stderr, cfg, extra)
        assert list(zip(below.tolist(), within.tolist())) == [
            checks._window(*t, cfg, extra) for t in terms
        ]
        assert classify(lhs, rhs, stderr, cfg, extra).tolist() == [
            classify(*t, cfg, extra) for t in terms
        ]

    @pytest.mark.parametrize("term", [0, 1, 2])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_arrays_with_a_non_finite_term_are_refused(self, term, bad):
        terms = [np.array([1.0, 2.0, 3.0]), np.array([1.0, 1.5, 3.5]), np.array([0.0, 0.1, 0.0])]
        terms[term][1] = bad
        with pytest.raises(ValueError, match="finite"):
            checks._window(*terms, CFG)
        with pytest.raises(ValueError, match="finite"):
            classify(*terms, CFG)
        with pytest.raises(ValueError, match="finite"):
            classify(terms[0], terms[1], 0.0, CFG, math.nan)

    @staticmethod
    def answer(monkeypatch, below, within):
        # classify is pinned to `holds`, so a verdict shows only what the gates did
        monkeypatch.setattr(checks, "_window", lambda *args, **kwargs: (below, within))
        monkeypatch.setattr(checks, "classify", lambda *args, **kwargs: VERDICT_HOLDS)

    def test_every_gate_decides_through_the_window(self, monkeypatch):
        # prefix laws differ but have equal entropies, so the Bonnesen
        # precondition consults the window
        px, py = gauss(np.diag([2.0, 0.5, 1.0])), gauss(np.diag([1.0, 1.0, 3.0]))
        pair = gauss(np.eye(2)), gauss(np.diag([2.0, 3.0]))

        def gates():
            try:
                check_entropic_bonnesen(px, py, 0.5, CFG)
                prefix = "accepted"
            except PreconditionError:
                prefix = "refused"
            return prefix, check_stam_recovery(*pair, cfg=CFG).verdict

        self.answer(monkeypatch, below=False, within=True)
        assert gates() == ("accepted", VERDICT_HOLDS)
        # the stam upper link tests `below`
        self.answer(monkeypatch, below=True, within=True)
        assert gates() == ("accepted", VERDICT_VIOLATED)
        # the Bonnesen prefix precondition and the stam identity gate test `within`
        self.answer(monkeypatch, below=False, within=False)
        assert gates() == ("refused", VERDICT_INCONCLUSIVE)


class TestEpi:
    def test_gaussian_worked_values(self):
        rep = check_epi(gauss(np.eye(2)), gauss(COV_A), CFG)
        assert rep.lhs == pytest.approx(TWO_PI_E * math.sqrt(8.0), rel=1e-12)
        assert rep.rhs == pytest.approx(TWO_PI_E * (1.0 + math.sqrt(3.0)), rel=1e-12)
        assert rep.verdict == VERDICT_HOLDS
        assert rep.stderr == 0.0

    def test_identical_gaussians_reach_equality(self):
        rep = check_epi(gauss(np.eye(2)), gauss(np.eye(2)), CFG)
        assert rep.verdict == VERDICT_EQUALITY

    def test_mixture_pair_not_violated(self):
        rep = check_epi(two_part(), two_part(1.0), CFG_MC)
        assert rep.verdict in (VERDICT_HOLDS, VERDICT_EQUALITY)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            check_epi(gauss(np.eye(2)), gauss(np.eye(3)), CFG)


class TestConditionalEpi:
    def test_single_label_reduces_to_epi(self):
        x, y = gauss(COV_A), gauss(COV_B)
        triple = MarkovTriple([1.0], [x], [y])
        flat = check_epi(x, y, CFG)
        rep = check_conditional_epi(triple, CFG)
        assert rep.lhs == pytest.approx(flat.lhs, rel=1e-12)
        assert rep.rhs == pytest.approx(flat.rhs, rel=1e-12)

    def test_proportional_covariances_reach_equality(self):
        triple = proportional_markov_triple(3, rng_from_tokens(0, "prop-eq"))
        rep = check_conditional_epi(triple, CFG)
        assert rep.verdict == VERDICT_EQUALITY

    def test_generic_triple_holds(self):
        triple = MarkovTriple(
            [0.3, 0.7],
            [gauss(COV_A), gauss(np.diag([1.0, 4.0]))],
            [gauss(COV_B), gauss(np.eye(2))],
        )
        rep = check_conditional_epi(triple, CFG)
        assert rep.verdict == VERDICT_HOLDS
        assert rep.lhs > rep.rhs


class TestEntropicBergstrom:
    def test_worked_pair_gap(self):
        rep = check_entropic_bergstrom(gauss(COV_A), gauss(COV_B), CFG)
        assert rep.lhs == pytest.approx(TWO_PI_E * 4.0, rel=1e-12)
        assert rep.rhs == pytest.approx(TWO_PI_E * 19.0 / 6.0, rel=1e-12)
        assert rep.gap == pytest.approx(14.232890371122610, rel=1e-10)
        assert rep.verdict == VERDICT_HOLDS

    def test_diagonal_pair_reaches_equality(self):
        rep = check_entropic_bergstrom(
            gauss(np.diag([1.0, 2.0])), gauss(np.diag([3.0, 4.0])), CFG
        )
        assert rep.verdict == VERDICT_EQUALITY

    def test_needs_two_dimensions(self):
        with pytest.raises(DimensionError):
            check_entropic_bergstrom(gauss([[1.0]]), gauss([[2.0]]), CFG)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.integers(2, 5))
    def test_gaussian_gap_is_two_pi_e_times_matrix_gap(self, seed, n):
        rng = rng_from_tokens(seed, "red-bergstrom", n)
        a, b = random_spd(n, rng), random_spd(n, rng)
        rep = check_entropic_bergstrom(gauss(a.entries), gauss(b.entries), CFG)
        assert rep.gap == pytest.approx(
            TWO_PI_E * bergstrom_gap_all(a, b)[n - 1], rel=1e-10, abs=1e-12
        )

    def test_sides_are_twice_the_half_conditional_form(self):
        # sqrt(1/2) (X + Y) halves exp(2 h(last | rest)), so each side is twice
        # that of conditional_form(1/2); relative bound fixed before the first run
        for n in range(2, 6):
            for i in range(50):
                rng = rng_from_tokens(i, "bergstrom-half", n)
                a, b = random_spd(n, rng, 1e4), random_spd(n, rng, 1e4)
                x, y = gauss(a.entries), gauss(b.entries)
                full, half = check_entropic_bergstrom(x, y, CFG), check_conditional_form(
                    x, y, 0.5, CFG)
                assert abs(full.lhs - 2.0 * half.lhs) <= 1e-13 * full.lhs
                assert abs(full.rhs - 2.0 * half.rhs) <= 1e-13 * full.rhs


class TestConditionalForm:
    def test_endpoints_share_one_estimate(self):
        for lam in (0.0, 1.0):
            rep = check_conditional_form(two_part(), two_part(1.0), lam, CFG_MC)
            assert rep.lhs == rep.rhs
            assert rep.stderr == 0.0
            assert rep.verdict == VERDICT_EQUALITY

    def test_worked_pair_midpoint(self):
        rep = check_conditional_form(gauss(COV_A), gauss(COV_B), 0.5, CFG)
        assert rep.lhs == pytest.approx(TWO_PI_E * 2.0, rel=1e-12)
        assert rep.rhs == pytest.approx(TWO_PI_E * 19.0 / 12.0, rel=1e-12)
        assert rep.gap == pytest.approx(7.116445185561305, rel=1e-10)

    def test_lambda_out_of_range(self):
        for lam in (-0.1, 1.1):
            with pytest.raises(ValueError):
                check_conditional_form(gauss(COV_A), gauss(COV_B), lam, CFG)

    @pytest.mark.parametrize("lam", [True, False, "0.5", None, [0.5], np.bool_(True)], ids=repr)
    def test_lambda_must_be_a_real_number(self, lam):
        # float(True) is 1.0 and float("0.5") is 0.5: both used to pass as lambdas
        x, y = gauss(COV_A), gauss(COV_B)
        for call in (
            lambda: check_conditional_form(x, y, lam, CFG),
            lambda: check_lambda_form(x, y, lam, CFG),
            lambda: check_entropic_bonnesen(x, x, lam, CFG),
            lambda: bonnesen_linear_gap(SpdMatrix(COV_A), SpdMatrix(COV_A), lam, 1),
        ):
            with pytest.raises(ValueError, match="real number"):
                call()

    @pytest.mark.parametrize("lam", [0, 1, 0.5, np.float64(0.5), np.float32(0.5), np.int64(1)],
                             ids=repr)
    def test_real_lambdas_of_any_type_pass(self, lam):
        rep = check_conditional_form(gauss(COV_A), gauss(COV_B), lam, CFG)
        assert type(rep.lam) is float and rep.lam == float(lam)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6), st.floats(0.05, 0.95))
    def test_matches_rescaled_unweighted_form(self, seed, lam):
        # the lambda-weighted split is the plain superadditivity statement
        # applied to sqrt(1-lam) X and sqrt(lam) Y
        rng = rng_from_tokens(seed, "two-forms")
        a, b = random_spd(2, rng), random_spd(2, rng)
        x, y = gauss(a.entries), gauss(b.entries)
        split = check_conditional_form(x, y, lam, CFG)
        plain = check_entropic_bergstrom(
            x.scale(math.sqrt(1.0 - lam)), y.scale(math.sqrt(lam)), CFG
        )
        assert split.gap == pytest.approx(plain.gap, rel=1e-10, abs=1e-12)


class TestLambdaForm:
    def test_mirrors_conditional_form(self):
        x, y = gauss(COV_A), gauss(COV_B)
        for lam in (0.25, 0.5, 0.75):
            a = check_lambda_form(x, y, lam, CFG)
            b = check_conditional_form(x, y, 1.0 - lam, CFG)
            assert a.lhs == pytest.approx(b.lhs, rel=1e-12)
            assert a.rhs == pytest.approx(b.rhs, rel=1e-12)

    def test_endpoint_equality(self):
        rep = check_lambda_form(gauss(COV_A), gauss(COV_B), 1.0, CFG)
        assert rep.verdict == VERDICT_EQUALITY
        assert rep.stderr == 0.0


class TestEntropicKyfan:
    def test_last_coordinate_matches_conditional_form(self):
        x, y = gauss(COV_A), gauss(COV_B)
        block = check_entropic_kyfan(x, y, [1], 0.5, CFG)
        cond = check_conditional_form(x, y, 0.5, CFG)
        assert block.lhs == pytest.approx(cond.lhs, rel=1e-12)
        assert block.rhs == pytest.approx(cond.rhs, rel=1e-12)

    def test_last_coordinate_is_conditional_form_bit_for_bit(self):
        for n in range(2, 6):
            for i in range(50):
                rng = rng_from_tokens(i, "kyfan-last", n)
                a, b = random_spd(n, rng, 1e4), random_spd(n, rng, 1e4)
                x, y = gauss(a.entries), gauss(b.entries)
                block = check_entropic_kyfan(x, y, [n - 1], 0.5, CFG)
                cond = check_conditional_form(x, y, 0.5, CFG)
                assert (block.lhs, block.rhs, block.gap) == (cond.lhs, cond.rhs, cond.gap)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6), st.floats(0.05, 0.95))
    def test_gaussian_gap_matches_matrix_kyfan(self, seed, lam):
        # trailing 2-block in dimension 3: conditioning block already leads
        rng = rng_from_tokens(seed, "red-kyfan")
        a, b = random_spd(3, rng), random_spd(3, rng)
        rep = check_entropic_kyfan(gauss(a.entries), gauss(b.entries), [1, 2], lam, CFG)
        matrix = kyfan_gap_all(SpdMatrix((1.0 - lam) * a.entries), SpdMatrix(lam * b.entries))[1]
        assert rep.gap == pytest.approx(TWO_PI_E * matrix, rel=1e-10, abs=1e-12)

    def test_endpoint_equality(self):
        rep = check_entropic_kyfan(gauss(COV_A), gauss(COV_B), [1], 0.0, CFG)
        assert rep.verdict == VERDICT_EQUALITY

    def test_subset_validation(self):
        x, y = gauss(np.eye(3)), gauss(np.eye(3))
        with pytest.raises(DimensionError):
            check_entropic_kyfan(x, y, [], 0.5, CFG)
        with pytest.raises(DimensionError):
            check_entropic_kyfan(x, y, [0, 1, 2], 0.5, CFG)
        with pytest.raises(IndexError):
            check_entropic_kyfan(x, y, [3], 0.5, CFG)
        with pytest.raises(ValueError):
            check_entropic_kyfan(x, y, [1, 1], 0.5, CFG)

    @pytest.mark.parametrize("subset", [[1.7], [2.0], [True]])
    def test_non_integer_coordinates_refused(self, subset):
        # [1.7] used to report coordinate 1
        x, y = gauss(np.eye(3)), gauss(np.eye(3))
        with pytest.raises(ValueError, match="integers"):
            check_entropic_kyfan(x, y, subset, 0.5, CFG)

    def test_numpy_integer_coordinates_accepted(self):
        x, y = gauss(np.eye(3)), gauss(np.diag([1.0, 2.0, 3.0]))
        rep = check_entropic_kyfan(x, y, [1], 0.5, CFG)
        for subset in (np.array([1]), [np.int32(1)], range(1, 2)):
            assert check_entropic_kyfan(x, y, subset, 0.5, CFG).lhs == rep.lhs


class TestEntropicBonnesen:
    def test_equal_prefix_diagonal_pair_is_additive(self):
        # exp(2h) of diag(1, 2.5) against the convex split of 1 and 4
        rep = check_entropic_bonnesen(gauss(np.eye(2)), gauss(np.diag([1.0, 4.0])), 0.5, CFG)
        assert rep.lhs == pytest.approx(TWO_PI_E**2 * 2.5, rel=1e-12)
        assert rep.rhs == pytest.approx(TWO_PI_E**2 * 2.5, rel=1e-12)
        assert rep.verdict == VERDICT_EQUALITY

    def test_same_law_short_circuits_precondition(self):
        rep = check_entropic_bonnesen(gauss(COV_A), gauss(COV_A), 0.3, CFG)
        assert rep.verdict == VERDICT_EQUALITY

    def test_perturbed_prefix_pair_strictly_positive(self):
        s2 = np.array([[1.0, 0.1], [0.1, 4.0]])
        rep = check_entropic_bonnesen(gauss(np.eye(2)), gauss(s2), 0.5, CFG)
        assert rep.gap == pytest.approx(TWO_PI_E**2 * 0.0025, rel=1e-10)
        assert rep.verdict == VERDICT_HOLDS

    def test_nearly_equal_prefix_entropies_accepted(self):
        # prefix laws differ in the last bit only; the entropy route accepts
        x = gauss(np.eye(2))
        y = gauss(np.diag([1.0 + 5e-12, 4.0]))
        rep = check_entropic_bonnesen(x, y, 0.5, CFG)
        assert rep.verdict in (VERDICT_HOLDS, VERDICT_EQUALITY)

    def test_unequal_prefixes_rejected(self):
        with pytest.raises(PreconditionError, match="prefix entropies differ"):
            check_entropic_bonnesen(gauss(np.eye(2)), gauss(np.diag([9.0, 1.0])), 0.5, CFG)

    def test_overflow_raises_without_warning(self):
        # exp(2h) of a 200-dimensional law with variance 40 is beyond the doubles
        cov = 40.0 * np.eye(200)
        wider = cov.copy()
        wider[-1, -1] *= 2.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError):
                check_entropic_bonnesen(gauss(cov), gauss(wider), 0.5, CFG)

    def test_mixture_pair_with_shared_prefix_law(self):
        x = GaussianMixture(
            [0.5, 0.5],
            [(np.zeros(2), np.diag([1.0, 2.0])), (np.zeros(2), np.diag([2.0, 1.0]))],
        )
        y = GaussianMixture(
            [0.5, 0.5],
            [(np.zeros(2), np.diag([1.0, 5.0])), (np.zeros(2), np.diag([2.0, 3.0]))],
        )
        rep = check_entropic_bonnesen(x, y, 0.5, CFG_MC)
        assert rep.verdict in (VERDICT_HOLDS, VERDICT_EQUALITY)
        assert rep.gap >= -3.0 * rep.stderr


def equality_grid_by_points(s1, s2, cfg):
    """(lambda, lhs, rhs, verdict) of the Bonnesen equality grid read point by
    point: each point's own factor, log-det and scalar ``classify``, and the
    first point of largest relative gap (a strict ``>``)."""
    n = s1.dim
    e1 = math.exp(n * LN_2PIE + s1.log_det)
    e2 = math.exp(n * LN_2PIE + s2.log_det)
    worst, verdicts = None, []
    for lam in np.linspace(0.0, 1.0, checks.EQUALITY_GRID_POINTS):
        chol = np.linalg.cholesky((1.0 - lam) * s1.entries + lam * s2.entries)
        lhs = math.exp(n * LN_2PIE + 2.0 * float(np.sum(np.log(np.diagonal(chol)))))
        rhs = (1.0 - lam) * e1 + lam * e2
        verdicts.append(classify(lhs, rhs, 0.0, cfg))
        rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0)
        if worst is None or rel > worst[0]:
            worst = (rel, float(lam), lhs, rhs)
    if VERDICT_VIOLATED in verdicts:
        verdict = VERDICT_VIOLATED
    elif all(v == VERDICT_EQUALITY for v in verdicts):
        verdict = VERDICT_EQUALITY
    else:
        verdict = VERDICT_HOLDS
    return worst[1:] + (verdict,)


def bumped(s1, s2):
    """C06's pair outside the equality family: s2 with its (0, n-1) entry
    raised by half its smallest eigenvalue, so the prefix minors still match."""
    n = s2.dim
    entries = s2.entries.copy()
    delta = 0.5 * float(np.linalg.eigvalsh(entries)[0])
    entries[0, n - 1] += delta
    entries[n - 1, 0] += delta
    return s1, SpdMatrix(entries)


class TestEqualityCaseBonnesen:
    @pytest.mark.parametrize("n", range(2, 9))  # n = 8 is where numpy's pairwise sum unrolls
    @pytest.mark.parametrize("family", ["equality", "bumped"])
    def test_grid_read_as_arrays_is_the_pointwise_reading(self, n, family):
        for i in range(6):
            pair = make_bonnesen_equality_pair(n, rng_from_tokens(26, "grid", n, i))
            if family == "bumped":
                pair = bumped(*pair)
            rep = check_equality_case_bonnesen(n, CFG, pair=pair)
            assert (rep.lam, rep.lhs, rep.rhs, rep.verdict) == equality_grid_by_points(*pair, CFG)
            assert rep.verdict == (VERDICT_EQUALITY if family == "equality" else VERDICT_HOLDS)

    @pytest.mark.parametrize("n", range(2, 6))
    def test_tied_worst_points_report_the_first(self, n):
        # a pair of one scaled identity ties its relative gaps: all exactly 0
        # (so lambda = 0 is reported), or two points of rounding noise apart
        for c in (0.25, 0.5, 1.0, 2.0, 4.0):
            pair = (SpdMatrix(c * np.eye(n)), SpdMatrix(c * np.eye(n)))
            rep = check_equality_case_bonnesen(n, CFG, pair=pair)
            assert (rep.lam, rep.lhs, rep.rhs, rep.verdict) == equality_grid_by_points(*pair, CFG)

    def test_generated_pair_is_equality_consistent(self):
        rep = check_equality_case_bonnesen(3, CFG)
        assert rep.verdict == VERDICT_EQUALITY
        assert rep.stderr == 0.0

    def test_last_diagonal_family_exact_on_grid(self):
        pair = (SpdMatrix(np.eye(2)), SpdMatrix(np.diag([1.0, 4.0])))
        rep = check_equality_case_bonnesen(2, CFG, pair=pair)
        assert rep.verdict == VERDICT_EQUALITY

    def test_perturbed_pair_leaves_equality_family(self):
        pair = (SpdMatrix(np.eye(2)), SpdMatrix(np.array([[1.0, 0.1], [0.1, 4.0]])))
        rep = check_equality_case_bonnesen(2, CFG, pair=pair)
        assert rep.verdict == VERDICT_HOLDS
        assert rep.gap > 0.0

    def test_matrix_and_entropic_gaps_agree(self):
        # (2 pi e)^2 times the determinant-level midpoint gap
        s1 = SpdMatrix(np.eye(2))
        s2 = SpdMatrix(np.array([[1.0, 0.1], [0.1, 4.0]]))
        ent = check_entropic_bonnesen(gauss(s1.entries), gauss(s2.entries), 0.5, CFG)
        assert ent.gap == pytest.approx(
            TWO_PI_E**2 * bonnesen_linear_gap(s1, s2, 0.5, 1), rel=1e-10
        )

    def test_mismatched_minors_rejected(self):
        pair = (SpdMatrix(np.eye(2)), SpdMatrix(np.diag([2.0, 1.0])))
        with pytest.raises(PreconditionError, match="minor determinants differ"):
            check_equality_case_bonnesen(2, CFG, pair=pair)

    def test_nan_minor_determinant_is_refused(self, monkeypatch):
        # the shared equal-minor test is written so that NaN fails it
        monkeypatch.setattr(matrices, "_principal_logdet", lambda m, keep: math.nan)
        pair = (SpdMatrix(np.eye(2)), SpdMatrix(np.diag([1.0, 4.0])))
        with pytest.raises(PreconditionError, match="minor determinants differ"):
            check_equality_case_bonnesen(2, CFG, pair=pair)
        with pytest.raises(PreconditionError, match="minor determinants differ"):
            bonnesen_linear_gap(*pair, 0.5, 1)


def three_part():
    """2-component 3-d mixture for the paired isoperimetric statistics."""
    return GaussianMixture(
        [0.5, 0.5],
        [(np.zeros(3), np.eye(3)), (np.array([2.0, 1.0, -1.0]), np.diag([1.0, 2.0, 0.5]))],
    )


def iso_statistics(x, cfg, name, iid, look):
    """Means and covariance of -log f(X), -log f_{n-1}(X^{n-1}) and |score|^2
    on the check's own draws, the first ``look`` of them."""
    n = x.dim
    pts = x.sample(rng_from_tokens(cfg.seed, name, iid, "mc"), cfg.m)[:look]
    score = x.score(pts)
    stats = np.stack([
        -x.log_density(pts),
        -x.marginal(range(n - 1)).log_density(pts[:, : n - 1]),
        np.einsum("ij,ij->i", score, score),
    ])
    return stats.mean(axis=1), np.cov(stats, ddof=1) / look


def iso_bound_gradient(mu, n):
    """Analytic gradient of 2 pi e (a^(n-1) + (n-1)/a), a = N_{n-1}/N, in
    (h(X), h(X^{n-1}))."""
    a = math.exp(2.0 * mu[1] / (n - 1)) / math.exp(2.0 * mu[0] / n)
    d_a = TWO_PI_E * (n - 1) * (a ** (n - 2) - 1.0 / a**2)
    return np.array([-2.0 / n * a * d_a, 2.0 / (n - 1) * a * d_a])


class TestIsoperimetricSharp:
    def test_mc_stderr_matches_analytic_gradient(self, kernel_rows):
        x = three_part()
        rep = check_isoperimetric_sharp(x, CFG_MC)
        look = sum(kernel_rows)  # one draw group, evaluated look by look
        mu, cov = iso_statistics(x, CFG_MC, "isoperimetric_sharp", rep.instance_id, look)
        n, npow = 3, math.exp(2.0 * mu[0] / 3)
        bound = iso_bound_gradient(mu, n)
        grad = np.array([mu[2] * 2.0 / n * npow - bound[0], -bound[1], npow])
        assert rep.stderr == pytest.approx(math.sqrt(grad @ cov @ grad), rel=1e-12)

    def test_standard_gaussian_meets_bound(self):
        rep = check_isoperimetric_sharp(gauss(np.eye(3)), CFG)
        assert rep.lhs == pytest.approx(TWO_PI_E * 3.0, rel=1e-12)
        assert rep.verdict == VERDICT_EQUALITY

    @pytest.mark.parametrize("s2", [0.25, 1.0, 4.0])
    def test_axis_scaled_gaussians_meet_bound(self, s2):
        rep = check_isoperimetric_sharp(gauss(np.diag([1.0, 1.0, s2])), CFG)
        assert abs(rep.gap) <= 1e-10 * max(abs(rep.lhs), abs(rep.rhs))
        assert rep.verdict == VERDICT_EQUALITY

    def test_mixture_holds(self):
        rep = check_isoperimetric_sharp(two_part(), CFG_MC)
        assert rep.verdict == VERDICT_HOLDS
        assert rep.gap > 0.0

    def test_needs_two_dimensions(self):
        with pytest.raises(DimensionError):
            check_isoperimetric_sharp(gauss([[1.0]]), CFG)


class TestIsoperimetricDominance:
    def test_mc_stderr_matches_analytic_gradient(self, kernel_rows):
        x = three_part()
        rep = check_isoperimetric_dominance(x, CFG_MC)
        look = sum(kernel_rows)  # one draw group, evaluated look by look
        mu, cov = iso_statistics(x, CFG_MC, "isoperimetric_dominance", rep.instance_id, look)
        grad = iso_bound_gradient(mu, 3)
        assert rep.stderr == pytest.approx(math.sqrt(grad @ cov[:2, :2] @ grad), rel=1e-12)

    def test_identity_covariance_is_tight(self):
        rep = check_isoperimetric_dominance(gauss(np.eye(3)), CFG)
        assert rep.rhs == pytest.approx(TWO_PI_E * 3.0, rel=1e-12)
        assert rep.verdict == VERDICT_EQUALITY

    def test_unbalanced_gaussian_strictly_above(self):
        rep = check_isoperimetric_dominance(gauss(np.diag([1.0, 4.0])), CFG)
        assert rep.lhs == pytest.approx(TWO_PI_E * 2.5, rel=1e-12)
        assert rep.verdict == VERDICT_HOLDS

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.integers(2, 5))
    def test_never_below_classical_bound(self, seed, n):
        rng = rng_from_tokens(seed, "iso-dom", n)
        rep = check_isoperimetric_dominance(gauss(random_spd(n, rng).entries), CFG)
        assert rep.verdict != VERDICT_VIOLATED
        assert rep.lhs >= rep.rhs * (1.0 - 1e-9)

    def test_mixture_route(self):
        rep = check_isoperimetric_dominance(two_part(), CFG_MC)
        assert rep.verdict in (VERDICT_HOLDS, VERDICT_EQUALITY)

    # The bound 2 pi e (a^(n-1) + (n-1)/a) is at least 2 pi e n for every
    # a > 0 (AM-GM), with equality at a = 1: the dominance record's claim,
    # checked with no draws.  Bounds fixed before the first run: 8 n eps
    # relative covers the pow, divide, add and multiply roundings.
    @pytest.mark.parametrize("n", range(2, 13))
    @settings(max_examples=100, deadline=None)
    @given(st.floats(-10.0, 10.0), st.floats(math.log(1e-3), math.log(1e3)))
    def test_iso_bound_is_at_least_two_pi_e_n(self, n, h, log_a):
        # h(X^{n-1}) placed so that a = N_{n-1} / N = exp(log_a)
        v = np.array([h, 0.5 * (n - 1) * (log_a + 2.0 * h / n)])
        assert checks._iso_bound(n, v) >= TWO_PI_E * n * (1.0 - 8 * n * EPS)

    @pytest.mark.parametrize("n", range(2, 13))
    @settings(max_examples=50, deadline=None)
    @given(st.floats(-10.0, 10.0))
    def test_iso_bound_is_two_pi_e_n_at_balance(self, n, h):
        v = np.array([h, (n - 1) * h / n])  # N_{n-1} = N, so a = 1
        assert abs(checks._iso_bound(n, v) / (TWO_PI_E * n) - 1.0) <= 8 * n * EPS


class TestDeBruijn:
    def test_scalar_gaussian_heat_derivative(self):
        rep = check_de_bruijn(gauss([[1.0]]), t=0.1, dt=1e-3, cfg=CFG)
        assert rep.rhs == pytest.approx(0.5 / 1.1, rel=1e-12)
        assert abs(rep.lhs - rep.rhs) <= 1e-6
        assert rep.verdict == VERDICT_EQUALITY

    def test_gaussian_matches_smoothed_trace(self):
        rep = check_de_bruijn(gauss(COV_A), t=0.1, dt=1e-3, cfg=CFG)
        smoothed = COV_A + 0.1 * np.eye(2)
        assert rep.rhs == pytest.approx(0.5 * np.trace(np.linalg.inv(smoothed)), rel=1e-12)
        assert rep.verdict == VERDICT_EQUALITY

    def test_mixture_paired_sampling(self):
        cfg = CheckConfig(m=50_000, seed=3)
        rep = check_de_bruijn(two_part(), t=0.1, dt=1e-3, cfg=cfg)
        assert rep.verdict == VERDICT_EQUALITY

    def test_shared_normal_block_unchanged(self, monkeypatch):
        # the three smoothed laws are placed from one (idx, z) and see the same
        # normals: only the last placement may overwrite z
        seen = []
        place = GaussianMixture._place

        def spy(law, idx, z, out=None, first=0):
            seen.append((idx, z, z.copy(), out))
            return place(law, idx, z, out, first)

        monkeypatch.setattr(GaussianMixture, "_place", spy)
        check_de_bruijn(two_part(), t=0.1, dt=1e-3, cfg=CheckConfig(m=2_000, seed=3))
        assert len(seen) == 3
        labels, block, before, _ = seen[0]
        assert all(idx is labels and z is block for idx, z, _, _ in seen)
        assert all(np.array_equal(normals, before) for _, _, normals, _ in seen)
        assert [out is block for *_, out in seen] == [False, False, True]

    @pytest.mark.parametrize("cov", [[[1.0]], COV_A, [[2.0, 0.3, 0.1], [0.3, 1.0, -0.2],
                                                      [0.1, -0.2, 1.5]]])
    def test_closed_form_is_the_gaussian_arithmetic(self, cov):
        # bit for bit the central difference of the closed-form entropy and half of the
        # closed-form Fisher information
        t, dt = 0.1, 1e-3
        g = gauss(cov).components[0]
        smoothed = {s: GaussianMixture.gaussian(g.mean, SpdMatrix(g.cov.entries + s * np.eye(g.dim)))
                    for s in (t - dt, t, t + dt)}
        h_up, h_down = (entropy(smoothed[s]).value for s in (t + dt, t - dt))
        rep = check_de_bruijn(gauss(cov), t, dt, CFG)
        assert rep.lhs == (h_up - h_down) / (2.0 * dt)
        assert rep.rhs == 0.5 * fisher(smoothed[t]).value
        assert rep.stderr == 0.0

    def test_step_validation(self):
        with pytest.raises(ValueError):
            check_de_bruijn(gauss([[1.0]]), t=0.1, dt=0.0, cfg=CFG)
        with pytest.raises(ValueError):
            check_de_bruijn(gauss([[1.0]]), t=0.1, dt=0.1, cfg=CFG)

    def test_nan_step_refused(self):
        # a NaN dt used to give a NaN lhs that read `holds`
        with pytest.raises(ValueError, match="finite"):
            check_de_bruijn(gauss(np.eye(2)), dt=math.nan)


class TestBlachmanStam:
    def test_scalar_gaussians_are_tight(self):
        rep = check_blachman_stam(gauss([[1.0]]), gauss([[4.0]]), CFG)
        assert rep.lhs == pytest.approx(5.0, rel=1e-12)
        assert rep.rhs == pytest.approx(5.0, rel=1e-12)
        assert rep.verdict == VERDICT_EQUALITY

    def test_identity_pair_equality(self):
        rep = check_blachman_stam(gauss(np.eye(2)), gauss(np.eye(2)), CFG)
        assert rep.verdict == VERDICT_EQUALITY

    def test_mixture_pair_not_violated(self):
        rep = check_blachman_stam(two_part(), two_part(1.0), CFG_MC)
        assert rep.verdict != VERDICT_VIOLATED


class TestProjectiveFisher:
    def test_worked_pair_last_axis(self):
        # inverse directional informations are the Schur complements
        rep = check_projective_fisher(gauss(COV_A), gauss(COV_B), [0.0, 1.0], CFG)
        assert rep.lhs == pytest.approx(4.0, rel=1e-12)
        assert rep.rhs == pytest.approx(19.0 / 6.0, rel=1e-12)
        assert rep.gap == pytest.approx(5.0 / 6.0, rel=1e-12)

    def test_diagonal_pair_reaches_equality(self):
        rep = check_projective_fisher(
            gauss(np.diag([1.0, 2.0])), gauss(np.diag([3.0, 4.0])), [0.0, 1.0], CFG
        )
        assert rep.verdict == VERDICT_EQUALITY

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6), st.integers(2, 4))
    def test_gap_invariant_under_rotation(self, seed, n):
        rng = rng_from_tokens(seed, "proj-rot", n)
        a, b = random_spd(n, rng), random_spd(n, rng)
        q, r = np.linalg.qr(rng.standard_normal((n, n)))
        q *= np.sign(np.diag(r))
        e_last = np.zeros(n)
        e_last[-1] = 1.0
        base = check_projective_fisher(gauss(a.entries), gauss(b.entries), e_last, CFG)
        rot = check_projective_fisher(
            gauss(q @ a.entries @ q.T), gauss(q @ b.entries @ q.T), q @ e_last, CFG
        )
        assert rot.gap == pytest.approx(base.gap, rel=1e-9, abs=1e-12)

    def test_mixture_pair_not_violated(self):
        rep = check_projective_fisher(two_part(), two_part(1.0), [0.0, 1.0], CFG_MC)
        assert rep.verdict != VERDICT_VIOLATED

    @pytest.mark.parametrize("u", [[math.nan, 0.0], [math.inf, 0.0], [0.0, -math.inf]])
    def test_non_finite_direction_refused_up_front(self, monkeypatch, u):
        def refuse(*tokens):
            raise AssertionError(f"a generator was made for {tokens}")

        monkeypatch.setattr(checks, "rng_from_tokens", refuse)
        with pytest.raises(ValueError, match="unit vector"):
            check_projective_fisher(two_part(), two_part(1.0), u, CFG_MC)


class TestTmLimit:
    def test_standard_gaussian_sequence_exact(self):
        for mv in (2, 4, 8, 16, 32, 64):
            est = fisher(gauss(np.eye(3)).linear_map(compression_map(3, mv)))
            assert est.value / mv**2 == pytest.approx(1.0 + 2.0 / mv**2, rel=1e-12)
            assert est.std_error == 0.0

    def test_standard_gaussian_verdict(self):
        rep = check_tm_limit(gauss(np.eye(3)), cfg=CFG)
        assert rep.lhs == pytest.approx(1.0 + 2.0 / 64.0**2, rel=1e-12)
        assert rep.rhs == pytest.approx(1.0 + 2.0 / 64.0**2, rel=1e-12)
        assert rep.verdict == VERDICT_EQUALITY

    def test_mixture_verdict(self):
        rep = check_tm_limit(two_part(), cfg=CheckConfig(m=20_000, seed=1))
        assert rep.verdict == VERDICT_EQUALITY and rep.stderr > 0.0

    def test_dimension_one_refused(self):
        with pytest.raises(DimensionError):
            check_tm_limit(gauss([[1.0]]), cfg=CFG)


class TestSqueezeIdentity:
    """The ``tm_limit`` record tests I(T_M X)/M^2 = I_{e_n}(X) + (I(X) - I_{e_n}(X))/M^2
    at M = 64 on two independent draw groups."""

    @pytest.mark.parametrize("cap", [1e2, 1e3, 1e6, 1e8])
    def test_gaussian_records_meet_the_identity(self, cap):
        for n in range(2, 9):
            for i in range(3):
                rng = rng_from_tokens(36, "tm-sweep", cap, n, i)
                law = gauss(random_spd(n, rng, cap).entries, rng.normal(size=n))
                rep = check_tm_limit(law, CFG)
                assert rep.verdict == VERDICT_EQUALITY and rep.stderr == 0.0
                assert abs(rep.gap) <= 1e-13 * max(abs(rep.lhs), abs(rep.rhs))

    def test_lhs_is_the_sequence_value_at_64(self):
        # the same role, "tm-64.0", so the same draws: bit for bit
        x, cfg = two_part(), CheckConfig(m=4 * BLOCK + 7, seed=2)
        rep = check_tm_limit(x, cfg)
        assert rep.verdict == VERDICT_EQUALITY  # the record ran to m
        squeezed = x.linear_map(compression_map(2, 64.0))
        run = checks._Run("tm_limit", cfg, None, x)
        ests, _ = _terms([(squeezed, "tm-64.0", (FISHER,))], cfg.m, run.rng)
        assert rep.lhs == ests[0].value / 64.0**2

    def test_sides_draw_independently(self, monkeypatch):
        roles = []
        rng = checks._Run.rng

        def spy(run, role):
            roles.append(role)
            return rng(run, role)

        monkeypatch.setattr(checks._Run, "rng", spy)
        check_tm_limit(two_part(), CheckConfig(m=2_000, seed=3))
        assert sorted(roles) == ["target", "tm-64.0"]

    @pytest.mark.parametrize("factor, verdict", [(0.95, VERDICT_VIOLATED), (1.05, VERDICT_HOLDS)])
    def test_planted_squeeze_defect(self, monkeypatch, factor, verdict):
        # a map that squeezes by 1/(factor M) moves the lhs off the identity;
        # a gap above the window reads `holds` while identities read one-sided
        compress = checks.compression_map
        monkeypatch.setattr(checks, "compression_map", lambda n, m: compress(n, factor * m))
        for x in (two_part(), gauss(np.eye(3))):
            assert check_tm_limit(x, CheckConfig(m=20_000, seed=1)).verdict == verdict


class TestSphereIdentity:
    def test_axis_vector_three_dims(self):
        rep = check_sphere_identity([1.0, 0.0, 0.0], CheckConfig(m=100_000, seed=0))
        assert rep.rhs == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert rep.verdict == VERDICT_EQUALITY

    def test_general_vector(self):
        rep = check_sphere_identity([1.0, 1.0, 1.0], CheckConfig(m=100_000, seed=0))
        assert rep.rhs == pytest.approx(1.0, rel=1e-12)
        assert rep.verdict == VERDICT_EQUALITY

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            check_sphere_identity([0.0, 0.0], CFG)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_vector_rejected(self, bad):
        # NaN terms used to read `holds`
        with pytest.raises(ValueError, match="finite"):
            check_sphere_identity([1.0, bad], CFG)


class TestStamRecovery:
    def test_identity_pair_is_tight(self):
        rep = check_stam_recovery(gauss(np.eye(2)), gauss(np.eye(2)), cfg=CFG)
        assert rep.lhs == pytest.approx(1.0, rel=1e-12)
        assert rep.rhs == pytest.approx(1.0, rel=1e-12)
        assert rep.verdict == VERDICT_EQUALITY

    def test_gaussian_pair_between_links(self):
        rep = check_stam_recovery(gauss(COV_A), gauss(COV_B), cfg=CFG)
        assert rep.verdict in (VERDICT_HOLDS, VERDICT_EQUALITY)

    def test_mixture_pair_not_violated(self):
        rep = check_stam_recovery(two_part(), two_part(1.0), cfg=CFG_MC)
        assert rep.verdict != VERDICT_VIOLATED

    def test_direction_count_validation(self):
        with pytest.raises(ValueError):
            check_stam_recovery(gauss(np.eye(2)), gauss(np.eye(2)), m_dirs=1, cfg=CFG)


class TestMatrixWrappers:
    def test_bergstrom_worked_indices(self):
        a, b = SpdMatrix(COV_A), SpdMatrix(COV_B)
        first = check_matrix_bergstrom(a, b, 0, CFG)
        last = check_matrix_bergstrom(a, b, 1, CFG)
        assert first.gap == pytest.approx(1.0, rel=1e-12)
        assert last.gap == pytest.approx(5.0 / 6.0, rel=1e-12)
        assert last.verdict == VERDICT_HOLDS

    def test_kyfan_one_matches_bergstrom_last(self):
        a, b = SpdMatrix(COV_A), SpdMatrix(COV_B)
        ky = check_matrix_kyfan(a, b, 1, CFG)
        bg = check_matrix_bergstrom(a, b, 1, CFG)
        assert ky.gap == pytest.approx(bg.gap, rel=1e-12)

    def test_diagonal_equality(self):
        a, b = SpdMatrix(np.diag([1.0, 2.0])), SpdMatrix(np.diag([3.0, 4.0]))
        assert check_matrix_bergstrom(a, b, 1, CFG).verdict == VERDICT_EQUALITY

    def test_validation(self):
        a, b = SpdMatrix(COV_A), SpdMatrix(COV_B)
        with pytest.raises(IndexError):
            check_matrix_bergstrom(a, b, 2, CFG)
        with pytest.raises(DimensionError):
            check_matrix_kyfan(a, b, 2, CFG)
        with pytest.raises(DimensionError):
            check_matrix_bergstrom(a, SpdMatrix(np.eye(3)), 0, CFG)


class TestChainAndSoundness:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.integers(2, 5))
    def test_deleted_row_superadditivity_implies_epi(self, seed, n):
        # convexity step: split (N(X)+N(Y))^n using the prefix-power weight
        rng = rng_from_tokens(seed, "chain", n)
        a, b = random_spd(n, rng), random_spd(n, rng)
        npow = lambda s: TWO_PI_E * math.exp(np.linalg.slogdet(s)[1] / s.shape[0])
        nx, ny = npow(a.entries), npow(b.entries)
        mx = npow(a.entries[: n - 1, : n - 1])
        my = npow(b.entries[: n - 1, : n - 1])
        mu = mx / (mx + my)
        lhs = mu * (nx / mu) ** n + (1.0 - mu) * (ny / (1.0 - mu)) ** n
        assert lhs >= (nx + ny) ** n * (1.0 - 1e-9)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6), st.integers(2, 4))
    def test_closed_form_routes_never_violate(self, seed, n):
        rng = rng_from_tokens(seed, "sound", n)
        x = gauss(random_spd(n, rng).entries)
        y = gauss(random_spd(n, rng).entries)
        lam = float(rng.uniform(0.05, 0.95))
        reports = [
            check_epi(x, y, CFG),
            check_entropic_bergstrom(x, y, CFG),
            check_conditional_form(x, y, lam, CFG),
            check_lambda_form(x, y, lam, CFG),
            check_entropic_kyfan(x, y, [n - 1], lam, CFG),
            check_isoperimetric_sharp(x, CFG),
            check_isoperimetric_dominance(x, CFG),
            check_blachman_stam(x, y, CFG),
            check_projective_fisher(x, y, np.eye(n)[-1], CFG),
        ]
        for rep in reports:
            assert rep.verdict != VERDICT_VIOLATED
            assert rep.stderr == 0.0

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10**6), st.integers(2, 5), st.sampled_from([1e2, 1e4, 1e6, 1e8]))
    def test_closed_form_pair_checks_are_swap_symmetric(self, seed, n, cap):
        # A + B == B + A in floating point, so swapping x and y moves no bit
        rng = rng_from_tokens(seed, "swap", n)
        x = gauss(random_spd(n, rng, cap).entries, rng.standard_normal(n))
        y = gauss(random_spd(n, rng, cap).entries, rng.standard_normal(n))
        for check in (check_epi, check_blachman_stam, check_entropic_bergstrom,
                      lambda a, b, cfg: check_projective_fisher(a, b, np.eye(n)[-1], cfg)):
            xy, yx = check(x, y, CFG), check(y, x, CFG)
            assert xy.stderr == 0.0
            bits = lambda r: (r.lhs.hex(), r.rhs.hex(), r.gap.hex(), r.verdict)
            assert bits(xy) == bits(yx)

    @pytest.mark.parametrize("check, lam", [
        (check_epi, None), (check_blachman_stam, None), (check_entropic_bergstrom, None),
        (check_conditional_form, 0.25), (check_conditional_form, 0.5),
    ], ids=["epi", "blachman_stam", "entropic_bergstrom", "conditional_form-0.25",
            "conditional_form-0.5"])
    def test_monte_carlo_pair_checks_are_swap_consistent(self, check, lam):
        # (x, y) and (y, x) state the same inequality.  With no instance id the
        # two calls are tagged apart, so they draw independent streams.  Bounds
        # fixed before the first run: a sampled pair's gaps agree within 4 joint
        # standard errors; a closed-form pair (stderr 0) agrees to 1e-12
        # relative to its larger term.
        cfg = CheckConfig(m=20_000, seed=3)
        pairs = [(gauss(COV_A), gauss(COV_B))]  # the closed-form route
        for n in (2, 3):
            for j in range(4):
                rng = rng_from_tokens(31, "swap", n, j)
                pairs.append((random_mixture(n, rng), random_mixture(n, rng)))
        sampled = 0
        for x, y in pairs:
            if lam is None:
                xy, yx = check(x, y, cfg), check(y, x, cfg)
            else:  # (y, x, 1 - lam) weights each law as (x, y, lam) does
                xy, yx = check(x, y, lam, cfg), check(y, x, 1.0 - lam, cfg)
            assert xy.instance_id != yx.instance_id
            assert (xy.stderr == 0.0) == (yx.stderr == 0.0)
            if xy.stderr == 0.0:
                assert abs(xy.gap - yx.gap) <= 1e-12 * max(abs(xy.lhs), abs(xy.rhs))
            else:
                sampled += 1
                assert abs(xy.gap - yx.gap) <= 4.0 * math.hypot(xy.stderr, yx.stderr), (
                    xy.instance_id, xy.gap, yx.gap)
        assert sampled == 8  # every pinned mixture pair samples


class TestReportShape:
    def test_serialization_fields(self):
        rep = check_conditional_form(gauss(COV_A), gauss(COV_B), 0.5, CFG)
        d = rep.to_dict()
        assert d["check_name"] == "conditional_form"
        assert d["lambda"] == 0.5
        assert d["dim"] == 2
        assert d["verdict"] == VERDICT_HOLDS
        assert d["wall_ms"] >= 0.0

    def test_record_keys_are_the_csv_columns(self):
        rep = check_conditional_form(gauss(COV_A), gauss(COV_B), 0.5, CFG)
        assert runner.CSV_COLUMNS is REPORT_KEYS
        fields = ("check_name", "instance_id", "dim", "lam", "lhs", "rhs", "gap", "stderr",
                  "verdict", "seed", "wall_ms")
        assert rep.to_dict() == {key: getattr(rep, f) for key, f in zip(REPORT_KEYS, fields)}
        assert list(rep.to_dict()) == list(REPORT_KEYS)

    def test_explicit_instance_id_is_kept(self):
        rep = check_epi(gauss(COV_A), gauss(COV_B), CFG, instance_id="pair-7")
        assert rep.instance_id == "pair-7"

    def test_same_config_reproduces_mc_reports(self):
        a = check_epi(two_part(), two_part(1.0), CFG_MC)
        b = check_epi(two_part(), two_part(1.0), CFG_MC)
        assert (a.lhs, a.rhs, a.stderr) == (b.lhs, b.rhs, b.stderr)


class TestCoordinateRule:
    # every caller of a coordinate list applies one rule, in one order:
    # integers, then duplicates, then range, then nonempty (and proper)
    CALLERS = {
        "marginal": lambda gm, keep: gm.marginal(keep),
        "conditional_entropy": lambda gm, keep: conditional_entropy(gm, keep, 1000, None),
        "check_entropic_kyfan": lambda gm, keep: check_entropic_kyfan(gm, gm, keep, 0.5, CFG),
    }

    @pytest.mark.parametrize("keep, error", [
        ([1, 1, 1], ValueError),  # conditional_entropy used to raise DimensionError here
        ([1.5, 1.5], ValueError),
        ([5, 5], ValueError),
        ([0, 5], IndexError),
        ([], DimensionError),
    ])
    def test_every_caller_raises_the_same_type(self, keep, error):
        gm = gauss(np.eye(3))
        for name, call in self.CALLERS.items():
            with pytest.raises((ValueError, IndexError)) as info:
                call(gm, keep)
            assert type(info.value) is error, name


class TestIndexRule:
    # a deleted index and a block size each have one rule, in one order: an
    # integer (a bool or a float raises ValueError), then in range
    INDEX_CALLERS = {
        "bonnesen_linear_gap": lambda a, b, i: bonnesen_linear_gap(a, a, 0.5, i),
        "check_matrix_bergstrom": lambda a, b, i: check_matrix_bergstrom(a, b, i, CFG),
    }
    BLOCK_CALLERS = {
        "check_matrix_kyfan": lambda a, b, k: check_matrix_kyfan(a, b, k, CFG),
    }
    PAIR = (SpdMatrix(np.diag([1.0, 2.0, 3.0])), SpdMatrix(np.diag([2.0, 1.0, 4.0])))

    @pytest.mark.parametrize("value", [True, False, 1.5, 1.0, np.float64(1.0), "1"], ids=repr)
    def test_non_integers_are_refused_alike_by_every_caller(self, value):
        for name, call in {**self.INDEX_CALLERS, **self.BLOCK_CALLERS}.items():
            with pytest.raises(ValueError, match="integer") as info:
                call(*self.PAIR, value)
            assert type(info.value) is ValueError, name

    def test_range_errors_keep_their_types(self):
        for name, call in self.INDEX_CALLERS.items():
            for i in (-1, 3):
                with pytest.raises(IndexError):
                    call(*self.PAIR, i)
        for name, call in self.BLOCK_CALLERS.items():
            for k in (0, 4):
                with pytest.raises(DimensionError):
                    call(*self.PAIR, k)
        with pytest.raises(DimensionError):
            check_matrix_kyfan(*self.PAIR, 3, CFG)  # k = n is a block of the whole matrix

    def test_numpy_integers_pass(self):
        a, b = self.PAIR
        for i in (np.int64(1), np.int32(1)):
            assert check_matrix_bergstrom(a, b, i, CFG).instance_id.endswith("-i1")
            assert check_matrix_kyfan(a, b, i, CFG).instance_id.endswith("-k1")


class TestTermPlans:
    def test_all_gaussian_plans_make_no_generator(self, monkeypatch):
        def refuse(*tokens):
            raise AssertionError(f"a generator was made for {tokens}")

        monkeypatch.setattr(checks, "rng_from_tokens", refuse)
        x, y = gauss(COV_A), gauss(COV_B)
        x3 = gauss(np.diag([1.0, 2.0, 3.0]))
        y3 = gauss(random_spd(3, rng_from_tokens(0, "plans")).entries)
        # equal prefix entropies from prefixes that differ as laws: the
        # precondition is estimated, on the closed-form route
        shifted = gauss([[2.0, -0.5], [-0.5, 3.0]], mean=[1.0, 0.0])
        triple = MarkovTriple([0.4, 0.6], [x, y], [y, x])
        reports = [
            check_epi(x, y, CFG), check_blachman_stam(x, y, CFG),
            check_projective_fisher(x, y, [0.6, 0.8], CFG), check_entropic_bergstrom(x, y, CFG),
            check_conditional_form(x, y, 0.3, CFG), check_lambda_form(x, y, 0.3, CFG),
            check_entropic_kyfan(x3, y3, [0], 0.3, CFG),
            check_entropic_bonnesen(x, shifted, 0.3, CFG),
            check_isoperimetric_sharp(x3, CFG), check_isoperimetric_dominance(x3, CFG),
            check_conditional_epi(triple, CFG), check_tm_limit(x3, cfg=CFG),
            check_de_bruijn(x3, cfg=CFG),
        ]
        assert all(r.stderr == 0.0 for r in reports)
        with pytest.raises(AssertionError, match="generator"):
            check_epi(two_part(), y, CFG)


def split(law: GaussianMixture) -> GaussianMixture:
    """A Gaussian written as two identical halves: not detected as Gaussian,
    so it takes the Monte-Carlo route while its exact answer is known."""
    (comp,) = law.components
    return GaussianMixture([0.5, 0.5], [comp, comp])


def binomial_allowance(n: int, p: float, rate: float = 1e-6) -> int:
    """Smallest k with P(Binomial(n, p) > k) <= rate."""
    tail = 1.0
    for k in range(n + 1):
        tail -= math.comb(n, k) * p**k * (1.0 - p) ** (n - k)
        if tail <= rate:
            return k
    return n


def equality_instances():
    """One call per check with looks, on a split-Gaussian instance whose gap is
    zero in law, so that its record runs to the last look."""
    s2, s3 = COV_A, random_spd(3, rng_from_tokens(0, "looks-3d")).entries
    x, y = split(gauss(s2)), split(gauss(2.0 * s2))
    x3, y3 = split(gauss(s3)), split(gauss(3.0 * s3))
    b1, b2 = make_bonnesen_equality_pair(2, rng_from_tokens(0, "looks-bonnesen"))
    triple = MarkovTriple([0.4, 0.6], [x, split(gauss(COV_B))],
                          [y, split(gauss(2.0 * COV_B))])
    return {
        "epi": lambda cfg: check_epi(x, y, cfg),
        "entropic_bergstrom": lambda cfg: check_entropic_bergstrom(x, y, cfg),
        "blachman_stam": lambda cfg: check_blachman_stam(x, y, cfg),
        "projective_fisher": lambda cfg: check_projective_fisher(x, y, [0.6, 0.8], cfg),
        "conditional_epi": lambda cfg: check_conditional_epi(triple, cfg),
        "conditional_form": lambda cfg: check_conditional_form(x, y, 0.3, cfg),
        "lambda_form": lambda cfg: check_lambda_form(x, y, 0.3, cfg),
        "entropic_kyfan": lambda cfg: check_entropic_kyfan(x3, y3, [0, 2], 0.3, cfg),
        "entropic_bonnesen": lambda cfg: check_entropic_bonnesen(
            split(gauss(b1.entries)), split(gauss(b2.entries)), 0.3, cfg),
        "isoperimetric_sharp": lambda cfg: check_isoperimetric_sharp(
            split(gauss(np.diag([1.0, 1.0, 4.0]))), cfg),
        "isoperimetric_dominance": lambda cfg: check_isoperimetric_dominance(
            split(gauss(np.eye(3))), cfg),
        # isotropic laws: I_u(X) = I(X) / n in every direction u, so the lower
        # link's gap is zero in law
        "stam_recovery": lambda cfg: check_stam_recovery(
            split(gauss(np.eye(3))), split(gauss(2.0 * np.eye(3))), cfg=cfg),
        "de_bruijn": lambda cfg: check_de_bruijn(x3, cfg=cfg),
        "tm_limit": lambda cfg: check_tm_limit(x3, cfg=cfg),
    }


class TestLooks:
    def test_schedule(self):
        assert checks._looks(100_000) == [BLOCK, 4 * BLOCK, 100_000]
        assert checks._looks(4 * BLOCK) == [BLOCK, 4 * BLOCK]
        assert checks._looks(BLOCK + 1) == [BLOCK, BLOCK + 1]
        assert checks._looks(BLOCK) == [BLOCK]
        assert checks._looks(2) == [2]

    @pytest.mark.parametrize("z", [1.0, 3.0, 5.0])
    @pytest.mark.parametrize("n_looks", [2, 3, 6])
    def test_looks_spend_one_alpha(self, z, n_looks):
        zs = checks._look_zs(z, n_looks)
        assert len(zs) == n_looks and len(set(zs[:-1])) == 1
        alpha = ndtr(-z)
        assert sum(ndtr(-zj) for zj in zs[:-1]) == pytest.approx(0.01 * alpha, rel=1e-12)
        assert ndtr(-zs[-1]) == pytest.approx(0.99 * alpha, rel=1e-12)

    def test_default_boundaries(self):
        assert checks._look_zs(3.0, 1) == (3.0,)
        assert [round(z, 2) for z in checks._look_zs(3.0, 3)] == [4.35, 4.35, 3.0]
        assert round(checks._look_zs(3.0, 3)[-1], 4) == 3.0031
        assert round(checks._look_zs(3.0, 2)[0], 2) == 4.20

    def test_boundaries_match_scipy_within_two_ulps(self):
        # the standard-library tail (erfc below z = 37, the asymptotic series
        # from there) and its Newton inverse, against scipy's log-space pair
        for z in range(1, 41):
            log_alpha = float(log_ndtr(-z))
            for n_looks in (2, 3, 6):
                early = -float(ndtri_exp(log_alpha + math.log(0.01 / (n_looks - 1))))
                last = -float(ndtri_exp(log_alpha + math.log1p(-0.01)))
                for got, want in zip(checks._look_zs(float(z), n_looks),
                                     (early,) * (n_looks - 1) + (last,)):
                    assert abs(got - want) <= 2 * math.ulp(want), (z, n_looks, got, want)

    def test_large_z_stays_finite(self):
        zs = checks._look_zs(40.0, 3)
        assert all(math.isfinite(z) for z in zs) and zs[-1] > 40.0 and zs[0] > zs[-1]

    def test_far_pair_stops_after_one_block(self, kernel_rows):
        rep = check_epi(two_part(), two_part(6.0), CheckConfig(m=100_000))
        assert rep.verdict == VERDICT_HOLDS
        assert kernel_rows == [BLOCK] * 3  # the sum, x and y laws, one block each

    def test_far_stam_pair_stops_after_one_block(self, kernel_rows):
        rep = check_stam_recovery(two_part(), two_part(6.0), cfg=CheckConfig(m=100_000))
        assert rep.verdict == VERDICT_HOLDS
        assert kernel_rows == [BLOCK] * 3  # the x, y and sum laws, one block each

    def test_endpoint_identity_stops_after_one_block(self, kernel_rows):
        # one estimate on both sides: gap and stderr are exactly 0 at every look
        for lam in (0.0, 1.0):
            kernel_rows.clear()
            rep = check_conditional_form(two_part(), two_part(1.0), lam, CheckConfig(m=100_000))
            assert (rep.gap, rep.stderr, rep.verdict) == (0.0, 0.0, VERDICT_EQUALITY)
            assert kernel_rows == [BLOCK]

    def test_equality_pair_reaches_m(self, kernel_rows):
        m = 100_000
        rep = check_epi(split(gauss(COV_A)), split(gauss(2.0 * COV_A)), CheckConfig(m=m))
        assert rep.verdict == VERDICT_EQUALITY
        assert kernel_rows == [BLOCK] * 3 + [3 * BLOCK] * 3 + [m - 4 * BLOCK] * 3

    @pytest.mark.parametrize("name", sorted(equality_instances()))
    def test_records_that_reach_m_match_one_look(self, name, kernel_rows, monkeypatch):
        call, cfg = equality_instances()[name], CheckConfig(m=4 * BLOCK + 7, seed=4)
        looked = call(cfg)
        rows = list(kernel_rows)
        monkeypatch.setattr(checks, "_looks", lambda m: [m])
        kernel_rows.clear()
        single = call(cfg)
        assert set(kernel_rows) == {cfg.m}
        assert sum(rows) == sum(kernel_rows)  # every law evaluated all m draws
        assert (looked.lhs, looked.rhs, looked.gap, looked.stderr) == (
            single.lhs, single.rhs, single.gap, single.stderr)

    @pytest.mark.parametrize("check", [check_tm_limit, check_de_bruijn])
    def test_identities_read_every_look(self, check, monkeypatch):
        read = []
        term_looks = checks._term_looks

        def spy(groups, looks, rng_for):
            for look, terms in zip(looks, term_looks(groups, looks, rng_for)):
                read.append(look)
                yield terms

        monkeypatch.setattr(checks, "_term_looks", spy)
        rep = check(two_part(), cfg=CheckConfig(m=100_000))
        assert rep.verdict == VERDICT_EQUALITY
        assert read == [BLOCK, 4 * BLOCK, 100_000]

    def test_gaussian_plans_have_one_look(self, monkeypatch):
        def refuse(m):
            raise AssertionError("a closed-form plan asked for looks")

        monkeypatch.setattr(checks, "_looks", refuse)
        for call in (lambda: check_epi(gauss(COV_A), gauss(COV_B), CFG),
                     lambda: check_conditional_form(gauss(COV_A), gauss(COV_B), 0.3, CFG),
                     lambda: check_isoperimetric_sharp(gauss(np.eye(3)), CFG)):
            assert call().stderr == 0.0
        # the mean over random directions keeps its error bar on the closed-form route
        assert check_stam_recovery(gauss(COV_A), gauss(COV_B), cfg=CFG).stderr > 0.0


class TestLookCalibration:
    """The stopping rule on split-Gaussian pairs, with pinned seeds and bounds
    fixed before the first run: a miss is a finding, not a bound to move."""

    def test_equality_pairs_never_stop_early(self, kernel_rows):
        # proportional covariances: the conditional_form gap is zero in law
        cfg, records = CheckConfig(m=4 * BLOCK, seed=31), 300
        z_last = checks._look_zs(cfg.z, len(checks._looks(cfg.m)))[-1]
        early = violated = 0
        for i in range(records):
            rng = rng_from_tokens(31, "look-cal", i)
            s = random_spd(2, rng).entries
            a, b = rng.uniform(0.5, 2.0, size=2)
            x = split(gauss(a * s, rng.normal(size=2)))
            y = split(gauss(b * s, rng.normal(size=2)))
            kernel_rows.clear()
            rep = check_conditional_form(x, y, 0.5, cfg)
            early += sum(kernel_rows) < 3 * cfg.m
            violated += rep.verdict == VERDICT_VIOLATED
        assert early == 0
        assert violated <= binomial_allowance(records, ndtr(-z_last))

    def test_first_look_error_bars_cover(self):
        # the first look's draws are those of a run at m = BLOCK; the exact
        # gap is 2 pi e times the Schur-complement gap, from slogdet
        cfg, records, lam = CheckConfig(m=BLOCK, seed=32), 200, 0.5

        def schur(s):
            return math.exp(np.linalg.slogdet(s)[1] - np.linalg.slogdet(s[:-1, :-1])[1])

        beyond = 0
        for i in range(records):
            rng = rng_from_tokens(32, "look-cal", i)
            sx, sy = random_spd(2, rng).entries, random_spd(2, rng).entries
            x, y = split(gauss(sx, rng.normal(size=2))), split(gauss(sy, rng.normal(size=2)))
            rep = check_conditional_form(x, y, lam, cfg)
            exact = TWO_PI_E * (schur((1 - lam) * sx + lam * sy)
                                - (1 - lam) * schur(sx) - lam * schur(sy))
            beyond += abs(rep.gap - exact) > 3.0 * rep.stderr
        assert beyond <= binomial_allowance(records, 2.0 * ndtr(-3.0))

    def test_de_bruijn_error_bars_are_calibrated(self):
        # the paired gap of the three smoothed laws, one look at m = 2e4; its
        # exact value is the closed-form record's gap on the same Gaussian
        cfg, records = CheckConfig(m=20_000, seed=34), 200
        zs = np.empty(records)
        for i in range(records):
            rng = rng_from_tokens(34, "bruijn-cal", i)
            n = int(rng.integers(1, 4))
            law = gauss(random_spd(n, rng).entries, rng.normal(size=n))
            rep = check_de_bruijn(split(law), cfg=cfg)
            zs[i] = (rep.gap - check_de_bruijn(law, cfg=cfg).gap) / rep.stderr
        assert abs(zs.mean()) <= 0.25
        assert 0.8 <= zs.std(ddof=1) <= 1.25
        assert np.abs(zs).max() <= 4.5

    def test_tm_limit_error_bars_are_calibrated(self):
        # the gap of the squeeze identity at M = 64 is zero in law; looks at m = 2e4
        cfg, records = CheckConfig(m=20_000, seed=35), 60
        zs, inconclusive = np.empty(records), 0
        for i in range(records):
            rng = rng_from_tokens(35, "tm-cal", i)
            n = int(rng.integers(2, 5))
            s = random_spd(n, rng).entries
            rep = check_tm_limit(split(gauss(s, rng.normal(size=n))), cfg=cfg)
            zs[i] = rep.gap / rep.stderr
            inconclusive += rep.verdict == VERDICT_INCONCLUSIVE
        assert abs(zs.mean()) <= 0.35
        assert 0.75 <= zs.std(ddof=1) <= 1.3
        assert np.abs(zs).max() <= 4.5
        assert inconclusive <= 2

    def test_stam_first_look_error_bars_cover(self):
        # isotropic pairs: I_u(X) = I(X) / n for every direction u, so the lower
        # link's gap is exactly zero; one look at m = BLOCK, at z = 3
        cfg, records = CheckConfig(m=BLOCK, seed=33), 300
        beyond = 0
        for i in range(records):
            rng = rng_from_tokens(33, "stam-cal", i)
            n = int(rng.integers(2, 5))
            a, b = rng.uniform(0.5, 2.0, size=2)
            x = split(gauss(a * np.eye(n), rng.normal(size=n)))
            y = split(gauss(b * np.eye(n), rng.normal(size=n)))
            rep = check_stam_recovery(x, y, cfg=cfg)
            beyond += abs(rep.gap) > 3.0 * rep.stderr
        assert beyond <= binomial_allowance(records, 2.0 * ndtr(-3.0))
