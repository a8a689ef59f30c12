"""Tests for Gaussian mixture laws: densities, scores, closure operations,
conditioning, and serialization."""

import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular
from scipy.special import logsumexp
from scipy.stats import multivariate_normal

import epicheck
from epicheck import (
    DegenerateLawError,
    DimensionError,
    GaussianComponent,
    GaussianMixture,
    MarkovTriple,
    SpdMatrix,
    random_mixture,
    random_spd,
)
from epicheck.checks import _looks
from epicheck.matrices import _chol_logdet
from epicheck.mixtures import BLOCK, LN_2PI, _labels, _logsumexp, _skip
from epicheck.seeding import rng_from_tokens


def two_part_mixture() -> GaussianMixture:
    return GaussianMixture(
        [0.3, 0.7],
        [
            GaussianComponent([0.0, 0.0], [[2.0, 1.0], [1.0, 2.0]]),
            GaussianComponent([1.5, -0.5], [[1.0, 0.0], [0.0, 0.5]]),
        ],
    )


def nine_part_mixture() -> GaussianMixture:
    """K = 9 components in dimension 3, the shape of a 3 x 3 convolution."""
    rng = rng_from_tokens(0, "nine-part")
    raw = rng.uniform(0.5, 1.5, size=9)
    comps = [
        GaussianComponent(rng.normal(0.0, 2.0, size=3), random_spd(3, rng, 100.0))
        for _ in range(9)
    ]
    return GaussianMixture(raw / raw.sum(), comps)


def ill_conditioned_mixture() -> GaussianMixture:
    """Two components whose covariances have condition number 1e8."""
    rng = rng_from_tokens(0, "ill-conditioned")
    comps = []
    for mean in ([0.0, 0.0, 0.0], [1.0, -2.0, 0.5]):
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        comps.append(GaussianComponent(mean, (q * [1e4, 1.0, 1e-4]) @ q.T))
    return GaussianMixture([0.4, 0.6], comps)


def mask_placement(gm: GaussianMixture, idx: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Each component's rows of ``z``, picked by a boolean mask on ``idx``,
    placed through its factor: the draws every pinned seed depends on.  A
    component drawn once is one row of a two-row product, never a one-row
    product, which numpy makes a matrix-vector product that rounds
    differently."""
    out = np.empty(z.shape)
    for c, comp in enumerate(gm.components):
        sel = idx == c
        count = np.count_nonzero(sel)
        if count:
            rows = np.zeros((max(count, 2), z.shape[1]))
            rows[:count] = z[sel]
            out[sel] = comp.mean + (rows @ comp.cov.chol.T)[:count]
    return out


def rows_independent_of_row_count(n: int) -> bool:
    """Whether this BLAS gives each row of an (r, n) @ (n, n) product the same
    bits however many rows share the call: one product against the same rows
    split 5 + rest.  Some OpenBLAS cores (Haswell, Zen) fail this at n >= 8."""
    rng = np.random.default_rng(n)
    rows = rng.standard_normal((256, n))
    factor = random_spd(n, rng).chol.T
    return np.array_equal(rows @ factor, np.vstack([rows[:5] @ factor, rows[5:] @ factor]))


def placement_ulps(gm: GaussianMixture, idx: np.ndarray, z: np.ndarray, got: np.ndarray):
    """Largest distance of ``got`` from ``mask_placement`` in units in the last
    place of each row's scale |mean| + |z| @ |chol'|, the size of the terms
    whose summation order a BLAS may change."""
    scale = np.empty(z.shape)
    for c, comp in enumerate(gm.components):
        sel = idx == c
        scale[sel] = np.abs(comp.mean) + np.abs(z[sel]) @ np.abs(comp.cov.chol.T)
    return float(np.max(np.abs(got - mask_placement(gm, idx, z)) / np.spacing(scale)))


def rare_component_mixture(n: int, k: int, m: int, rng) -> GaussianMixture:
    """k components in dimension n.  Of m draws, the first component expects
    about one in the whole call and, for k > 2, the last, which sorts last in
    every block, about 1.5 per block."""
    w = rng.uniform(0.5, 1.5, size=k)  # about k in all
    if k > 1:
        w[0] = k * min(1.0 / m, 0.2)
    if k > 2:
        w[-1] = k * min(1.5 / BLOCK, 0.2)
    comps = [
        GaussianComponent(rng.normal(0.0, 3.0, size=n), random_spd(n, rng, 1e4)) for _ in range(k)
    ]
    return GaussianMixture(w / w.sum(), comps)


def conditioned_mixture(n: int, k: int, cond: float, rng) -> GaussianMixture:
    """k components in dimension n whose covariances have condition number
    ``cond`` (eigenvalues log-spaced from 1, random orientations)."""
    comps = []
    for _ in range(k):
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        eig = np.geomspace(1.0, cond, n)
        comps.append(GaussianComponent(rng.normal(0.0, 2.0, size=n), (q * eig) @ q.T))
    raw = rng.uniform(0.5, 1.5, size=k)
    return GaussianMixture(raw / raw.sum(), comps)


def solve_triangular_kernel(gm: GaussianMixture, pts: np.ndarray, prefix_len: int):
    """(log f, log f_k, score) with scipy's ``solve_triangular`` on the
    transposed residuals (x - mu)', each component whitened row-major."""
    lengths = (prefix_len, gm.dim)
    logs = np.empty((gm.n_components, 2, pts.shape[0]))
    sigma_inv = np.empty((gm.n_components, gm.dim, pts.shape[0]))
    for c, (w, comp) in enumerate(zip(gm.weights, gm.components)):
        chol = comp.cov.chol
        z = solve_triangular(chol, (pts - comp.mean).T, lower=True, check_finite=False)
        for j, k in enumerate(lengths):
            logs[c, j] = np.log(w) - 0.5 * (np.einsum("ij,ij->j", z[:k], z[:k]) + k * LN_2PI
                                             + _chol_logdet(chol[:k, :k]))
        sigma_inv[c] = solve_triangular(chol, z, lower=True, trans="T", check_finite=False)
    total, mean_score = np.empty((2, pts.shape[0])), np.empty((gm.dim, pts.shape[0]))
    _logsumexp(logs, total, sigma_inv, mean_score)
    return total[1], total[0], -mean_score.T


def stacked_logsumexp(terms) -> np.ndarray:
    """log sum_c exp(terms[c]) over the first axis of (K, m) ``terms``."""
    terms = np.array(terms, dtype=float)
    total = np.empty((1, terms.shape[1]))
    _logsumexp(terms[:, None, :], total)
    return total[0]


def longdouble_kernel(gm: GaussianMixture, pts: np.ndarray, prefix_len: int):
    """(log f, log f_k, score) in extended precision (``np.longdouble``) by
    forward and back substitution on each component's double Cholesky
    factor, taken as exact, and rounded to double at the end."""
    ld = np.longdouble
    x = pts.astype(ld)
    ln_2pi = np.log(2 * ld("3.14159265358979323846264338327950288"))
    logs, sigma_inv = [], []
    for w, c in zip(gm.weights, gm.components):
        chol = c.cov.chol.astype(ld)
        d = x - c.mean.astype(ld)
        z = np.empty_like(d)
        for i in range(gm.dim):
            z[:, i] = (d[:, i] - (z[:, :i] * chol[i, :i]).sum(axis=1)) / chol[i, i]
        u = np.empty_like(z)
        for i in reversed(range(gm.dim)):
            u[:, i] = (z[:, i] - (u[:, i + 1:] * chol[i + 1:, i]).sum(axis=1)) / chol[i, i]
        log_pivots = np.log(np.diagonal(chol))
        logs.append([
            np.log(ld(w)) - 0.5 * ((z[:, :k] ** 2).sum(axis=1) + k * ln_2pi
                                   + 2 * log_pivots[:k].sum())
            for k in (gm.dim, prefix_len)
        ])
        sigma_inv.append(u)
    logs = np.array(logs)
    top = logs.max(axis=0)
    total = top + np.log(np.exp(logs - top).sum(axis=0))
    resp = np.exp(logs[:, 0] - total[0])
    score = -(resp[:, :, None] * np.array(sigma_inv)).sum(axis=0)
    return total[0].astype(float), total[1].astype(float), score.astype(float)


def component_log_joint(gm: GaussianMixture, pts: np.ndarray) -> np.ndarray:
    """(K, m) matrix of log w_c + log phi_c(x), one triangular solve each."""
    rows = []
    for w, c in zip(gm.weights, gm.components):
        z = solve_triangular(c.cov.chol, (pts - c.mean).T, lower=True)
        quad = np.einsum("ij,ij->j", z, z)
        rows.append(np.log(w) - 0.5 * (quad + gm.dim * math.log(2 * math.pi) + c.cov.log_det))
    return np.vstack(rows)


def per_component_score(gm: GaussianMixture, pts: np.ndarray) -> np.ndarray:
    """The score as a two-pass formula: responsibilities from stacked
    component log-densities, then each component's Sigma^-1 (x - mu)."""
    logs = component_log_joint(gm, pts)
    resp = np.exp(logs - logsumexp(logs, axis=0))
    acc = np.zeros_like(pts)
    for r, comp in zip(resp, gm.components):
        low = solve_triangular(comp.cov.chol, (pts - comp.mean).T, lower=True)
        acc -= r[:, None] * solve_triangular(comp.cov.chol.T, low, lower=False).T
    return acc


class TestConstruction:
    def test_weights_must_sum_to_one(self):
        comp = GaussianComponent([0.0], [[1.0]])
        with pytest.raises(ValueError, match="sum to 1"):
            GaussianMixture([0.5, 0.4], [comp, comp])

    def test_weights_must_be_positive(self):
        comp = GaussianComponent([0.0], [[1.0]])
        with pytest.raises(ValueError, match="positive"):
            GaussianMixture([1.0, 0.0], [comp, comp])

    @pytest.mark.parametrize("weights", [[math.nan, 0.5], [0.5, math.nan], [math.inf, 0.5]])
    def test_weights_must_be_finite(self, weights):
        comp = GaussianComponent([0.0], [[1.0]])
        with pytest.raises(ValueError, match="finite"):
            GaussianMixture(weights, [comp, comp])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_mean_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            GaussianMixture.gaussian([bad, 0.0], np.eye(2))

    def test_component_dims_must_agree(self):
        with pytest.raises(DimensionError):
            GaussianMixture(
                [0.5, 0.5],
                [GaussianComponent([0.0], [[1.0]]), GaussianComponent([0.0, 0.0], np.eye(2))],
            )

    def test_tuple_components_coerced(self):
        gm = GaussianMixture([1.0], [(np.zeros(2), np.eye(2))])
        assert isinstance(gm.components[0], GaussianComponent)

    def test_gaussian_classmethod(self):
        gm = GaussianMixture.gaussian(np.zeros(3), np.eye(3))
        assert gm.is_gaussian and gm.n_components == 1 and gm.dim == 3


class TestDensity:
    def test_matches_scipy_single(self):
        cov = [[2.0, 1.0], [1.0, 2.0]]
        gm = GaussianMixture.gaussian([0.5, -1.0], cov)
        pts = rng_from_tokens(1, "density").normal(size=(40, 2))
        expected = multivariate_normal(mean=[0.5, -1.0], cov=cov).logpdf(pts)
        assert np.allclose(gm.log_density(pts), expected, rtol=1e-12, atol=1e-12)

    def test_matches_scipy_mixture(self):
        gm = two_part_mixture()
        pts = rng_from_tokens(2, "density").normal(size=(40, 2))
        parts = [
            w * multivariate_normal(mean=c.mean, cov=c.cov.entries).pdf(pts)
            for w, c in zip(gm.weights, gm.components)
        ]
        assert np.allclose(gm.log_density(pts), np.log(np.sum(parts, axis=0)), rtol=1e-10)

    def test_component_log_density_matches_formula(self):
        gm = nine_part_mixture()
        pts = gm.sample(rng_from_tokens(3, "density"), 200)
        for c in gm.components:
            expected = component_log_joint(GaussianMixture([1.0], [c]), pts)[0]
            np.testing.assert_allclose(c.log_density(pts), expected, rtol=1e-14)

    def test_single_point_returns_scalar(self):
        gm = two_part_mixture()
        out = gm.log_density([0.0, 0.0])
        assert np.isscalar(out)

    def test_log_sum_exp_stable_far_out(self):
        # naive exp-then-log underflows; the value must stay finite
        gm = two_part_mixture()
        far = np.array([[1e6, -1e6], [1e3, 1e3]])
        vals = gm.log_density(far)
        assert np.all(np.isfinite(vals))
        assert vals[0] < -1e9

    def test_overflowing_quadratic_form_gives_minus_infinity(self):
        gm = nine_part_mixture()
        with np.errstate(over="ignore"):
            vals = gm.log_density(np.array([[1e200, 0.0, 0.0], [0.0, 0.0, 0.0]]))
        assert vals[0] == -np.inf and np.isfinite(vals[1])


class TestKernel:
    @pytest.mark.parametrize("make", [nine_part_mixture, ill_conditioned_mixture])
    def test_prefix_matches_marginal(self, make):
        gm = make()
        pts = gm.sample(rng_from_tokens(1, "kernel"), 500)
        for k in range(1, gm.dim):
            log_f, log_prefix, score = gm._kernel(pts, k)
            assert score is None
            assert np.array_equal(log_f, gm._kernel(pts)[0])
            expected = gm.marginal(range(k)).log_density(pts[:, :k])
            np.testing.assert_allclose(log_prefix, expected, rtol=1e-12)

    def test_joint_matches_scipy(self):
        gm = nine_part_mixture()
        pts = gm.sample(rng_from_tokens(2, "kernel"), 500)
        parts = [
            np.log(w) + multivariate_normal(mean=c.mean, cov=c.cov.entries).logpdf(pts)
            for w, c in zip(gm.weights, gm.components)
        ]
        np.testing.assert_allclose(gm.log_density(pts), logsumexp(parts, axis=0), rtol=1e-10)

    @pytest.mark.parametrize("make", [nine_part_mixture, ill_conditioned_mixture])
    def test_joint_matches_per_component_formula(self, make):
        gm = make()
        pts = gm.sample(rng_from_tokens(3, "kernel"), 500)
        expected = logsumexp(component_log_joint(gm, pts), axis=0)
        np.testing.assert_allclose(gm.log_density(pts), expected, rtol=1e-13)

    def test_log_sum_exp_matches_scipy_at_the_edges(self):
        # weights down to 1e-12, points out to |x| ~ 1e6
        weights = [1e-12, 1e-6, 1.0 - 1e-6 - 1e-12]
        gm = GaussianMixture(
            weights,
            [
                GaussianComponent([1e6, 0.0], [[1.0, 0.2], [0.2, 2.0]]),
                GaussianComponent([0.0, -1e6], [[3.0, 0.0], [0.0, 0.5]]),
                GaussianComponent([0.0, 0.0], np.eye(2)),
            ],
        )
        pts = np.array(
            [[1e6, 1.0], [0.0, -1e6], [1e6, -1e6], [-1e6, 1e6], [0.5, 0.5], [1e6, 0.0]]
        )
        logs = component_log_joint(gm, pts)
        expected = logsumexp(logs, axis=0)
        np.testing.assert_allclose(stacked_logsumexp(logs), expected, rtol=1e-14)
        np.testing.assert_allclose(gm.log_density(pts), expected, rtol=1e-14)

    @pytest.mark.parametrize("cond", [1.0, 1e4, 1e8])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_accuracy_against_extended_precision(self, n, cond):
        # For each dimension and condition number, over K = 1..9 and
        # m in {1, 2, 7, 500} on non-contiguous points: the kernel's largest
        # error against an extended-precision reference is at most 4 times the
        # largest error of the solve_triangular path on the same points.  An
        # error below one ulp counts as one ulp: double output cannot do better.
        def density_err(a, ref):
            return np.max(np.abs(a - ref) / np.maximum(np.abs(ref), 1.0))

        def score_err(a, ref):
            rows = np.linalg.norm(ref, axis=1)
            return np.max(np.linalg.norm(a - ref, axis=1) / np.maximum(rows, 1e-300))

        errors = np.zeros((2, 3))  # (kernel, solve_triangular) x (log f, log f_k, score)
        for k in range(1, 10):
            for m in (1, 2, 7, 500):
                rng = rng_from_tokens(n, k, m, int(math.log10(cond)), "kernel-accuracy")
                gm = conditioned_mixture(n, k, cond, rng)
                pts = gm.sample(rng, 2 * m)[::2]
                prefix = max(1, n - 1)
                ref = longdouble_kernel(gm, pts, prefix)
                for row, out in enumerate((gm._kernel(pts, prefix, True),
                                           solve_triangular_kernel(gm, pts, prefix))):
                    errs = [density_err(out[0], ref[0]), density_err(out[1], ref[1]),
                            score_err(out[2], ref[2])]
                    errors[row] = np.maximum(errors[row], errs)
        assert np.all(errors[0] <= 4.0 * np.maximum(errors[1], np.finfo(float).eps)), errors

    def test_bitwise_equal_across_blas_thread_counts(self, tmp_path):
        # the m = 1e5 solves may run on several BLAS threads
        gm = nine_part_mixture()
        (tmp_path / "law.json").write_text(gm.to_json())
        np.save(tmp_path / "pts.npy", gm.sample(rng_from_tokens(10, "kernel"), 100_000))
        child = (
            "import hashlib, sys; import numpy as np; from pathlib import Path\n"
            "from epicheck import GaussianMixture\n"
            "d = Path(sys.argv[1])\n"
            "gm = GaussianMixture.from_json((d / 'law.json').read_text())\n"
            "out = gm._kernel(np.load(d / 'pts.npy'), 2, True)\n"
            "print(hashlib.sha256(b''.join(np.ascontiguousarray(a).tobytes() for a in out))"
            ".hexdigest())\n"
        )
        src = str(Path(epicheck.__file__).parents[1])
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            run = subprocess.run([sys.executable, "-c", child, str(tmp_path)], env=env,
                                 capture_output=True, text=True, check=True)
            digests.append(run.stdout.strip())
        assert digests[0] == digests[1]
        out = gm._kernel(np.load(tmp_path / "pts.npy"), 2, True)
        local = hashlib.sha256(b"".join(np.ascontiguousarray(a).tobytes() for a in out))
        assert digests[0] == local.hexdigest()

    def test_empty_input(self):
        gm = nine_part_mixture()
        pts = np.empty((0, 3))
        assert gm.log_density(pts).shape == (0,)
        assert gm.score(pts).shape == (0, 3)
        log_f, log_prefix, score = gm._kernel(pts, 2, True)
        assert log_f.shape == log_prefix.shape == (0,) and score.shape == (0, 3)

    @pytest.mark.parametrize("m", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 7])
    def test_split_at_unaligned_point_matches_whole(self, m):
        # the points are cut into blocks of BLOCK: where the cut falls must
        # not change a point's log-densities, and its score only by rounding
        gm = nine_part_mixture()
        pts = gm.sample(rng_from_tokens(m, "kernel-split"), m)
        k = m // 3 + 1
        whole = gm._kernel(pts, 2, True)
        parts = [gm._kernel(pts[:k], 2, True), gm._kernel(pts[k:], 2, True)]
        for j in (0, 1):
            assert np.array_equal(whole[j], np.concatenate([p[j] for p in parts]))
        split = np.concatenate([p[2] for p in parts])
        err = np.linalg.norm(split - whole[2], axis=1) / np.linalg.norm(whole[2], axis=1)
        assert err.max() <= 1e-15

    def test_overflowing_points_in_every_block(self):
        # a point whose quadratic form overflows under every component has
        # log f = -inf, and minus the first component's score; nothing but
        # the overflow itself may warn
        gm = nine_part_mixture()
        pts = gm.sample(rng_from_tokens(12, "kernel-overflow"), 2 * BLOCK + 7)
        far = [3, BLOCK + 1, 2 * BLOCK + 6]
        pts[far] = [[1e200, 0.0, 0.0], [0.0, -1e200, 1.0], [0.0, 0.0, 1e200]]
        first = GaussianMixture([1.0], gm.components[:1])
        with warnings.catch_warnings(), np.errstate(over="ignore"):
            warnings.simplefilter("error")
            log_f, log_prefix, score = gm._kernel(pts, 2, True)
            alone = first._kernel(pts[far], 0, True)[2]
        assert np.all(log_f[far] == -np.inf)
        assert np.all(log_prefix[far[:2]] == -np.inf) and np.isfinite(log_prefix[far[2]])
        assert np.array_equal(score[far], alone)
        near = np.ones(len(pts), dtype=bool)
        near[far] = False
        assert np.isfinite(log_f[near]).all() and np.isfinite(score[near]).all()

    def test_scratch_memory_does_not_grow_with_m(self):
        gm = nine_part_mixture()

        def scratch_bytes(m):
            pts = gm.sample(rng_from_tokens(m, "kernel-memory"), m)
            tracemalloc.start()
            try:
                out = gm._kernel(pts, 2, True)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak - sum(a.nbytes for a in out)

        assert scratch_bytes(100_000) <= 1.1 * scratch_bytes(4 * BLOCK)

    def test_log_sum_exp_propagates_nan(self):
        # a NaN term (an inf - inf inside a whitening far out) gives a NaN, not an error
        out = stacked_logsumexp([[0.0, np.nan, 1.0], [np.nan, np.nan, 2.0]])
        assert np.isnan(out[:2]).all() and out[2] == pytest.approx(logsumexp([1.0, 2.0]))

    def test_log_sum_exp_of_scalars(self):
        a = np.log([1e-12, 0.3, 0.7 - 1e-12])
        assert stacked_logsumexp(a[:, None])[0] == pytest.approx(logsumexp(a), abs=1e-15)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_points_rejected(self, bad):
        gm = nine_part_mixture()
        pts = np.zeros((3, 3))
        pts[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            gm.log_density(pts)
        with pytest.raises(ValueError, match="finite"):
            gm.score(pts)
        with pytest.raises(ValueError, match="finite"):
            gm.score(pts[1])


class TestScore:
    @pytest.mark.parametrize("make", [nine_part_mixture, ill_conditioned_mixture])
    def test_matches_per_component_formula(self, make):
        gm = make()
        pts = gm.sample(rng_from_tokens(4, "score"), 500)
        expected = per_component_score(gm, pts)
        np.testing.assert_allclose(
            gm.score(pts), expected, rtol=1e-9, atol=1e-12 * np.abs(expected).max()
        )
        assert np.array_equal(gm._kernel(pts, 2, True)[2], gm.score(pts))

    def test_public_calls_leave_their_points_unchanged(self):
        # a float64 C-ordered input is the kernel's own array: the score must
        # not be written over it
        gm = nine_part_mixture()
        pts = gm.sample(rng_from_tokens(6, "score"), BLOCK + 7)
        kept = pts.copy()
        for x in (pts, pts[5]):
            assert not np.shares_memory(gm.score(x), pts)
            gm.log_density(x)
        assert np.array_equal(pts, kept)

    def test_matches_central_difference_nine_parts(self):
        gm = nine_part_mixture()
        pts = gm.sample(rng_from_tokens(5, "score"), 20)
        step = 1e-5
        grad = np.empty_like(pts)
        for j in range(3):
            up, dn = pts.copy(), pts.copy()
            up[:, j] += step
            dn[:, j] -= step
            grad[:, j] = (gm.log_density(up) - gm.log_density(dn)) / (2 * step)
        np.testing.assert_allclose(gm.score(pts), grad, rtol=1e-6, atol=1e-6)

    def test_gaussian_score_closed_form(self):
        cov = np.array([[2.0, 1.0], [1.0, 2.0]])
        gm = GaussianMixture.gaussian([0.0, 0.0], cov)
        pts = rng_from_tokens(3, "score").normal(size=(10, 2))
        expected = -(np.linalg.inv(cov) @ pts.T).T
        assert np.allclose(gm.score(pts), expected, rtol=1e-11, atol=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_score_matches_numeric_gradient(self, seed):
        rng = rng_from_tokens(seed, "prop-score")
        gm = random_mixture(2, rng)
        pt = rng.normal(size=2)
        step = 1e-6
        grad = np.empty(2)
        for j in range(2):
            up, dn = pt.copy(), pt.copy()
            up[j] += step
            dn[j] -= step
            grad[j] = (gm.log_density(up) - gm.log_density(dn)) / (2 * step)
        assert np.allclose(gm.score(pt), grad, rtol=1e-5, atol=1e-5)


class TestSampling:
    def test_deterministic_given_seed(self):
        gm = two_part_mixture()
        a = gm.sample(rng_from_tokens(5, "samp"), 100)
        b = gm.sample(rng_from_tokens(5, "samp"), 100)
        assert np.array_equal(a, b)

    def test_draws_match_per_component_placement(self):
        # the draws every pinned seed depends on: categorical choice, one
        # normal block, then each component's rows placed through its factor
        gm = nine_part_mixture()
        rng = rng_from_tokens(9, "samp")
        idx = rng.choice(gm.n_components, size=5000, p=gm.weights)
        z = rng.standard_normal((5000, gm.dim))
        expected = mask_placement(gm, idx, z)
        assert np.array_equal(gm.sample(rng_from_tokens(9, "samp"), 5000), expected)

    def test_wide_key_placement_matches_masks(self):
        # K = 300 needs a 16-bit sort key
        rng = rng_from_tokens(11, "samp")
        comps = [GaussianComponent(rng.normal(size=2), random_spd(2, rng)) for _ in range(300)]
        raw = rng.uniform(0.5, 1.5, size=300)
        gm = GaussianMixture(raw / raw.sum(), comps)
        idx = rng.choice(gm.n_components, size=20_000, p=gm.weights)
        z = rng.standard_normal((20_000, gm.dim))
        expected = mask_placement(gm, idx, z)
        kept = z.copy()
        assert np.array_equal(gm._place(idx, z), expected)
        assert np.array_equal(z, kept)
        assert np.array_equal(gm._place(idx, z, out=z), expected)

    @pytest.mark.parametrize("k", [1, 2, 9, 300])
    def test_labels_match_choice(self, k):
        # the labels and generator state rng.choice leaves, with a 1e-12 weight
        rng = rng_from_tokens(k, "labels")
        w = rng.uniform(0.5, 1.5, size=k)
        w[k // 2] = 1e-12 * w.sum()
        w /= w.sum()
        for m in (1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 100_000):
            expected, got = rng_from_tokens(m, "labels"), rng_from_tokens(m, "labels")
            labels = _labels(got, w, m)
            assert labels.dtype == np.min_scalar_type(k - 1)
            assert np.array_equal(labels, expected.choice(k, size=m, p=w))
            np.testing.assert_equal(got.bit_generator.state, expected.bit_generator.state)

    @pytest.mark.parametrize("n, exact", [
        pytest.param(n, exact, id=f"n{n}-bitwise" if exact else f"n{n}-within-4-ulp")
        for n in range(1, 9)
        for exact in [n < 8 or rows_independent_of_row_count(n)]
    ])
    def test_sample_matches_whole_call_placement(self, n, exact):
        # the draws and generator state of rng.choice, one standard normal
        # block and each component's rows placed by one product over the whole
        # call; bitwise where this BLAS's rows do not depend on the row count
        rng = rng_from_tokens(n, "sample-sweep")
        lone_in_call = lone_in_block = False
        for k in (1, 2, 9, 300):
            for m in (1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 7, 100_000):
                gm = rare_component_mixture(n, k, m, rng)
                expected, got = rng_from_tokens(k, m, "sample"), rng_from_tokens(k, m, "sample")
                idx = expected.choice(k, size=m, p=gm.weights)
                z = expected.standard_normal((m, n))
                with np.errstate(all="raise"):
                    pts = gm.sample(got, m)
                np.testing.assert_equal(got.bit_generator.state, expected.bit_generator.state)
                if exact:
                    assert np.array_equal(pts, mask_placement(gm, idx, z)), (k, m)
                else:
                    assert placement_ulps(gm, idx, z, pts) <= 4.0, (k, m)
                totals = np.bincount(idx, minlength=k)
                lone_in_call |= bool(np.any(totals == 1))
                for lo in range(0, m, BLOCK):
                    counts = np.bincount(idx[lo:lo + BLOCK], minlength=k)
                    lone_in_block |= bool(np.any((counts == 1) & (totals > 1)))
        assert lone_in_call and lone_in_block

    @pytest.mark.parametrize("n", [3, 8])
    @pytest.mark.parametrize("m", [BLOCK - 1, BLOCK, BLOCK + 1, 4 * BLOCK + 7, 100_000])
    def test_pieces_are_the_rows_of_sample(self, n, m):
        # a check's looks: each look's next normals, placed from the first
        # draw of the look, are the next rows of sample(rng, m) bit for bit,
        # lone rows in a block included (rare components), and the generator
        # ends where sample leaves it
        looks = _looks(m)
        for k in (2, 9):
            gm = rare_component_mixture(n, k, m, rng_from_tokens(n, k, m, "pieces-law"))
            expected, got = rng_from_tokens(n, k, m, "pieces"), rng_from_tokens(n, k, m, "pieces")
            whole = gm.sample(expected, m)
            idx = _labels(got, gm.weights, m)
            for lo, hi in zip([0, *looks], looks):
                z = got.standard_normal((hi - lo, n))
                assert np.array_equal(gm._place(idx, z, out=z, first=lo), whole[lo:hi]), (k, hi)
            np.testing.assert_equal(got.bit_generator.state, expected.bit_generator.state)

    def test_scratch_memory_does_not_grow_with_m(self):
        gm = nine_part_mixture()

        def scratch_bytes(m):
            rng = rng_from_tokens(m, "sample-memory")
            tracemalloc.start()
            try:
                pts = gm.sample(rng, m)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak - pts.nbytes - m  # the one-byte labels also grow with m

        assert scratch_bytes(100_000) <= 1.1 * scratch_bytes(4 * BLOCK)

    def test_moments_match(self):
        gm = two_part_mixture()
        pts = gm.sample(rng_from_tokens(6, "samp"), 200_000)
        mean = sum(w * c.mean for w, c in zip(gm.weights, gm.components))
        assert np.allclose(pts.mean(axis=0), mean, atol=0.02)
        second = sum(
            w * (c.cov.entries + np.outer(c.mean, c.mean))
            for w, c in zip(gm.weights, gm.components)
        )
        emp = pts.T @ pts / len(pts)
        assert np.allclose(emp, second, atol=0.05)

    @pytest.mark.parametrize("m", [3.0, 2.5, True, 0])
    def test_count_must_be_a_positive_integer(self, m):
        rng = rng_from_tokens(12, "samp")
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="sample count must be a positive integer"):
            two_part_mixture().sample(rng, m)
        np.testing.assert_equal(rng.bit_generator.state, state)
        assert two_part_mixture().sample(rng, np.int64(3)).shape == (3, 2)


class TestLookLabels:
    @pytest.mark.parametrize("count", [0, 1, 3, 4, 5, BLOCK - 1, 100_000 - BLOCK])
    @pytest.mark.parametrize("before", [0, 1, 2, 3])
    def test_skip_leaves_the_state_of_the_draws(self, before, count):
        expected, got = (rng_from_tokens(before, count, "skip") for _ in range(2))
        expected.random(before + count)
        got.random(before)
        _skip(got, count)
        np.testing.assert_equal(got.bit_generator.state, expected.bit_generator.state)
        assert np.array_equal(got.random(9), expected.random(9))

    def test_skip_keeps_a_saved_32_bit_half(self):
        expected, got = rng_from_tokens("skip-half"), rng_from_tokens("skip-half")
        for rng in (expected, got):
            rng.integers(0, 5, dtype=np.uint32)
        assert got.bit_generator.state["has_uint32"] == 1
        expected.random(BLOCK + 2)
        _skip(got, BLOCK + 2)
        np.testing.assert_equal(got.bit_generator.state, expected.bit_generator.state)

    def test_skip_needs_philox(self):
        with pytest.raises(TypeError, match="Philox"):
            _skip(np.random.default_rng(0), 5)


class TestClosureOps:
    def test_convolve_gaussians_adds_covariances(self):
        x = GaussianMixture.gaussian([1.0, 0.0], [[2.0, 1.0], [1.0, 2.0]])
        y = GaussianMixture.gaussian([0.0, 2.0], [[3.0, -1.0], [-1.0, 2.0]])
        w = x.convolve(y)
        assert w.is_gaussian
        assert np.allclose(w.components[0].mean, [1.0, 2.0])
        assert np.allclose(w.components[0].cov.entries, [[5.0, 0.0], [0.0, 4.0]])

    def test_convolve_component_count_and_weights(self):
        gm = two_part_mixture()
        w = gm.convolve(gm)
        assert w.n_components == 4
        assert w.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_scale(self):
        gm = two_part_mixture()
        s = gm.scale(2.0)
        assert np.allclose(s.components[0].cov.entries, 4.0 * gm.components[0].cov.entries)
        assert np.allclose(s.components[1].mean, 2.0 * gm.components[1].mean)
        with pytest.raises(DegenerateLawError):
            gm.scale(0.0)

    def test_overflowing_covariance_refused_at_construction(self):
        # sums, multiples and blocks skip SpdMatrix's checks, not its finiteness
        x = GaussianMixture.gaussian([1.0, 2.0], [[2.0, 0.5], [0.5, 8e307]])
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="finite"):
                x.scale(10.0)
            with pytest.raises(ValueError, match="finite"):
                x.convolve(x.scale(1.2))

    def test_closure_covariances_are_those_of_checked_construction(self):
        gm = nine_part_mixture()
        laws = [
            (gm.convolve(gm), [a.cov.entries + b.cov.entries
                               for a in gm.components for b in gm.components]),
            (gm.scale(-0.7), [-0.7 * -0.7 * c.cov.entries for c in gm.components]),
            (gm.marginal([2, 0]), [c.cov.entries[np.ix_([2, 0], [2, 0])] for c in gm.components]),
        ]
        for law, entries in laws:
            for comp, expected in zip(law.components, entries):
                checked = SpdMatrix(expected)
                assert np.array_equal(comp.cov.entries, checked.entries)
                assert np.array_equal(comp.cov.chol, checked.chol)
                assert comp.cov.log_det == checked.log_det

    def test_marginal(self):
        gm = two_part_mixture()
        m = gm.marginal([0])
        assert m.dim == 1
        assert np.allclose(m.components[0].cov.entries, [[2.0]])
        with pytest.raises(DimensionError):
            gm.marginal([])
        with pytest.raises(ValueError):
            gm.marginal([0, 0])
        with pytest.raises(IndexError):
            gm.marginal([2])

    @pytest.mark.parametrize("keep", [[1.5], [0.0], [True], [np.bool_(False)], ["1"]])
    def test_marginal_refuses_non_integer_coordinates(self, keep):
        # a float used to be truncated: [1.5] kept coordinate 1
        with pytest.raises(ValueError, match="integers"):
            two_part_mixture().marginal(keep)

    def test_marginal_takes_ranges_and_numpy_integers(self):
        gm = two_part_mixture()
        for keep in (range(1, 2), [np.int64(1)], np.array([1])):
            assert np.array_equal(gm.marginal(keep).components[1].mean, gm.components[1].mean[1:])

    def test_marginal_density_consistency(self):
        # integrating out the last coordinate analytically = dropping it
        gm = two_part_mixture()
        m = gm.marginal([0])
        pts = gm.sample(rng_from_tokens(7, "marg"), 50)
        direct = m.log_density(pts[:, :1])
        assert np.all(np.isfinite(direct))

    def test_linear_map(self):
        gm = two_part_mixture()
        a = np.array([[1.0, 2.0], [0.0, 1.0]])
        mapped = gm.linear_map(a)
        expect = a @ gm.components[0].cov.entries @ a.T
        assert np.allclose(mapped.components[0].cov.entries, expect, rtol=1e-12)
        assert np.allclose(mapped.components[1].mean, a @ gm.components[1].mean)
        with pytest.raises(ValueError, match="invertible"):
            gm.linear_map(np.zeros((2, 2)))

    def test_linear_map_density_change_of_variables(self):
        gm = two_part_mixture()
        a = np.array([[2.0, 0.5], [0.0, 1.0]])
        mapped = gm.linear_map(a)
        pts = gm.sample(rng_from_tokens(8, "map"), 30)
        lhs = mapped.log_density((a @ pts.T).T)
        rhs = gm.log_density(pts) - math.log(abs(np.linalg.det(a)))
        assert np.allclose(lhs, rhs, rtol=1e-10, atol=1e-10)


class TestConditionalSlice:
    def test_gaussian_conditional(self):
        gm = GaussianMixture.gaussian([0.0, 0.0], [[2.0, 1.0], [1.0, 2.0]])
        cond = gm.conditional_slice(np.array([1.0]))
        assert cond.dim == 1
        assert cond.components[0].mean[0] == pytest.approx(0.5, rel=1e-12)
        assert cond.components[0].cov.entries[0, 0] == pytest.approx(1.5, rel=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_prefix_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            nine_part_mixture().conditional_slice([0.0, bad])

    def test_underflowing_posterior_weight_dropped(self):
        # the far component's posterior weight is exp(-5000): 0 in double
        gm = GaussianMixture([0.5, 0.5], [([0.0, 0.0], np.eye(2)), ([100.0, 0.0], np.eye(2))])
        cond = gm.conditional_slice([0.0])
        assert cond.n_components == 1
        assert cond.weights[0] == 1.0
        assert cond.components[0].mean[0] == 0.0
        assert cond.components[0].cov.entries[0, 0] == 1.0

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_chain_rule_density_reconstruction(self, seed):
        # f(x) = f_prefix(x_1..n-1) * f_cond(x_n | prefix)
        rng = rng_from_tokens(seed, "prop-slice")
        gm = random_mixture(3, rng)
        pt = rng.normal(size=3)
        joint = gm.log_density(pt)
        prefix = gm.marginal([0, 1]).log_density(pt[:2])
        cond = gm.conditional_slice(pt[:2]).log_density(pt[2:])
        assert joint == pytest.approx(prefix + cond, rel=1e-10, abs=1e-10)


class TestSerialization:
    def test_round_trip_exact(self):
        gm = two_part_mixture()
        back = GaussianMixture.from_json(gm.to_json())
        assert np.array_equal(back.weights, gm.weights)
        for a, b in zip(back.components, gm.components):
            assert np.array_equal(a.mean, b.mean)
            assert np.array_equal(a.cov.entries, b.cov.entries)

    def test_dict_schema(self):
        payload = two_part_mixture().to_dict()
        assert set(payload) == {"dim", "weights", "components"}
        assert set(payload["components"][0]) == {"mean", "cov"}
        text = json.dumps(payload)
        assert isinstance(text, str)

    def test_from_dict_validates_dim(self):
        payload = two_part_mixture().to_dict()
        payload["dim"] = 5
        with pytest.raises(DimensionError):
            GaussianMixture.from_dict(payload)


class TestMarkovTriple:
    def test_valid_triple(self):
        g = GaussianMixture.gaussian([0.0], [[1.0]])
        t = MarkovTriple([0.4, 0.6], [g, g], [g, g])
        assert t.n_labels == 2 and t.dim == 1

    def test_prob_validation(self):
        g = GaussianMixture.gaussian([0.0], [[1.0]])
        with pytest.raises(ValueError):
            MarkovTriple([0.4, 0.5], [g, g], [g, g])

    @pytest.mark.parametrize("probs", [[math.nan, 0.6], [0.4, math.nan], [math.inf, 0.6]])
    def test_probs_must_be_finite(self, probs):
        g = GaussianMixture.gaussian([0.0], [[1.0]])
        with pytest.raises(ValueError, match="finite"):
            MarkovTriple(probs, [g, g], [g, g])

    def test_length_mismatch(self):
        g = GaussianMixture.gaussian([0.0], [[1.0]])
        with pytest.raises(DimensionError):
            MarkovTriple([0.4, 0.6], [g, g], [g])

    def test_dim_mismatch(self):
        g1 = GaussianMixture.gaussian([0.0], [[1.0]])
        g2 = GaussianMixture.gaussian([0.0, 0.0], np.eye(2))
        with pytest.raises(DimensionError):
            MarkovTriple([0.4, 0.6], [g1, g2], [g1, g1])
