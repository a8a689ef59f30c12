"""Entropy and Fisher-information estimators with explicit error bars.

Every quantity comes back as a :class:`ScalarEstimate` tagged with the
method that produced it.  One term engine, ``_terms``, routes entropies and
Fisher informations: closed forms for pure Gaussians, with zero standard
error, else plug-in Monte-Carlo means with the CLT error and covariance; the
k-nearest-neighbour entropy estimator uses a grouped jackknife.  Entropies
are differential entropies in nats.
"""

from __future__ import annotations

import math
import warnings
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from itertools import count

import numpy as np

from .exceptions import DimensionError
from .matrices import _is_int, _principal_logdet
from .mixtures import (
    BLOCK, LN_2PI, GaussianComponent, GaussianMixture, _coordinates, _labels, _logsumexp, _skip,
)
from .seeding import rng_from_tokens, stable_digest

LN_2PIE = LN_2PI + 1.0

METHOD_CLOSED = "closed_form"
METHOD_MC = "plug_in_mc"
METHOD_KNN = "knn"

DEFAULT_SAMPLES = 100_000


@dataclass(frozen=True)
class ScalarEstimate:
    """Point estimate with standard error, sample count, and provenance."""

    value: float
    std_error: float = 0.0
    n_samples: int = 0
    method: str = METHOD_CLOSED

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError(f"estimate must be finite, got {self.value}")
        if not 0.0 <= self.std_error < math.inf:  # NaN fails both
            raise ValueError(f"standard error must be finite and nonnegative, got {self.std_error}")
        if self.method == METHOD_CLOSED and self.std_error != 0.0:
            raise ValueError("closed-form estimates carry zero standard error")


def _std_error(values: np.ndarray) -> float:
    """CLT standard error of the mean of at least 2 per-sample values."""
    return float(np.std(values, ddof=1) / np.sqrt(values.shape[0]))


def _jackknife(thetas: np.ndarray) -> float:
    """Grouped-jackknife standard error from the leave-one-group-out estimates."""
    return float(np.sqrt((len(thetas) - 1) / len(thetas) * np.sum((thetas - thetas.mean()) ** 2)))


def _delta(fn, mu, cov) -> tuple[float, float]:
    """fn(mu) and its delta-method standard error sqrt(g' cov g) for estimates
    with means ``mu`` and covariance ``cov``.  g is a complex step, g_j = Im
    fn(mu + i h e_j) / h with h = 1e-20 (Squire & Trapp, SIAM Rev. 1998), exact
    to rounding for any fn built from +, -, *, /, ** and np.exp.  A zero ``cov``
    (a closed form) gives exactly 0.0 and no g.  A value that is not a finite
    double raises OverflowError, as math.exp does, with no RuntimeWarning."""
    mu, cov = np.asarray(mu, dtype=float), np.asarray(cov, dtype=float)
    with np.errstate(all="ignore"):
        value = float(fn(mu))
        if not math.isfinite(value):
            raise OverflowError(f"delta-method value is not a finite double: {value}")
        if not cov.any():
            return value, 0.0
        grad = np.array([fn(mu + 1e-20j * e).imag for e in np.eye(mu.shape[0])]) / 1e-20
        return value, float(np.sqrt(max(grad @ cov @ grad, 0.0)))


def _mean_and_se(values: np.ndarray, method: str) -> ScalarEstimate:
    return ScalarEstimate(float(np.mean(values)), _std_error(values), values.shape[0], method)


# --------------------------------------------------------------------------
# the term engine.  A statistic is ENTROPY, FISHER, ("conditional_entropy", given),
# ("marginal_entropy", coords) measured on the joint's draws, ("projective_fisher", u)
# or ("score_moment", (i, j)) with i <= j, with sorted coordinate lists and a unit vector u.

ENTROPY, FISHER = ("entropy", None), ("fisher", None)
PREFIXED = ("conditional_entropy", "marginal_entropy")  # their coordinates lead the kernel
SCORED = ("fisher", "projective_fisher", "score_moment")  # their rows read the score


def _closed(stats, g: GaussianComponent) -> list[ScalarEstimate]:
    """The one closed form of each statistic of ``stats`` for the Gaussian ``g``.
    The Fisher information and the score moments read the inverse Cholesky
    factor L^-1, made once: Sigma^-1 = L^-T L^-1."""
    n, cov = g.dim, g.cov
    inv_chol = None
    ests = []
    for kind, arg in stats:
        if kind == "entropy":  # (n ln(2 pi e) + ln det Sigma) / 2
            value = 0.5 * (n * LN_2PIE + cov.log_det)
        elif kind == "marginal_entropy":
            value = 0.5 * (len(arg) * LN_2PIE + _principal_logdet(cov, arg))
        elif kind == "conditional_entropy":  # h(joint) - h(given)
            value = 0.5 * ((n - len(arg)) * LN_2PIE + cov.log_det - _principal_logdet(cov, arg))
        elif kind == "projective_fisher":  # u' Sigma^-1 u
            w = np.linalg.solve(cov.chol, arg)
            value = float(w @ w)
        else:  # tr Sigma^-1, or the entry (Sigma^-1)_ij
            if inv_chol is None:
                inv_chol = np.linalg.solve(cov.chol, np.eye(n))
            value = float(np.sum(inv_chol**2) if arg is None
                          else inv_chol[:, arg[0]] @ inv_chol[:, arg[1]])
        ests.append(ScalarEstimate(value, 0.0, 0, METHOD_CLOSED))
    return ests


def _row(stat, log_f, log_prefix, score, out=None) -> np.ndarray:
    """The per-sample values whose mean estimates ``stat``, into ``out`` (a
    fresh array by default)."""
    kind, arg = stat
    if kind.endswith("fisher"):  # |score|^2, or <score, u>^2
        if arg is None:
            return np.einsum("ij,ij->i", score, score, out=out)
        dots = np.matmul(score, arg, out=out)
        return np.square(dots, out=dots)
    if kind == "score_moment":
        return np.multiply(score[:, arg[0]], score[:, arg[1]], out=out)
    if kind == "entropy":
        return np.negative(log_f, out=out)
    if kind == "conditional_entropy":  # log_prefix - log_f: the bits of -log_f + log_prefix
        return np.subtract(log_prefix, log_f, out=out)
    return np.negative(log_prefix, out=out)


def _shared(law, stats):
    """A draw group's laws and each law's statistics: one law with its tuple of
    statistics, or a tuple of laws that share one weight vector, each with its
    own tuple of statistics."""
    return (law, stats) if isinstance(law, tuple) else ((law,), (stats,))


def _counts(looks) -> None:
    """Refuse counts that are not integers, and fewer than 2 draws, which have
    no error bar, on either route."""
    if not all(map(_is_int, looks)):
        raise ValueError(f"sample counts must be integers, got m={looks[-1]!r}")
    if looks[0] < 2:
        raise ValueError(f"an estimate needs at least 2 draws, got m={looks[0]!r}")


def _sampled(law, stats, looks, rng):
    """The Monte-Carlo route of one draw group (``_shared``), look by look: at
    each m_j of the increasing ``looks``, the means of the statistics' rows on
    the first m_j draws and their covariance.  The draws are those of the
    first law's ``sample(rng, looks[-1])``, m labels and then the normals, and
    every law places the same labels and normals through its own components
    (``_place``), the last in place over the normals.  A look labels only its
    new draws, from a cursor that ``rng`` has skipped past (``_skip``: Philox
    only, with several looks), then places and evaluates (``_kernel``) them,
    the score written over the placed points, and writes their per-sample
    rows into the look's slice of the rows, so with looks at multiples of
    BLOCK every row is the one a single look at looks[-1] makes.  A lone
    statistic keeps its estimator's CLT bar ``_std_error`` (np.cov would
    differ from it in the last bit); several take np.cov / m_j.  The counts
    are ``_term_looks``'s, checked there."""
    laws, stats = _shared(law, stats)
    if rng is None:
        raise ValueError("a generator is required for the Monte-Carlo route")
    gm = laws[0]
    if any(g.dim != gm.dim or not np.array_equal(g.weights, gm.weights) for g in laws):
        raise ValueError("the laws of a draw group share one dimension and one weight vector")
    plans = []
    for g, law_stats in zip(laws, stats):
        prefixes = {tuple(arg) for kind, arg in law_stats if kind in PREFIXED}
        if len(prefixes) > 1:
            raise ValueError(f"a law's statistics have at most one prefix, got {sorted(prefixes)}")
        prefix = list(prefixes.pop()) if prefixes else []
        order = prefix + [i for i in range(g.dim) if i not in prefix]
        plans.append((g, law_stats, order, g if order == list(range(g.dim)) else g.marginal(order),
                      len(prefix), any(kind in SCORED for kind, _ in law_stats)))
    idx = _labels(rng, gm.weights, looks[0])
    if len(looks) > 1:  # the next label's place, while rng goes on past the unread ones
        cursor = rng.bit_generator.state
        _skip(rng, looks[-1] - looks[0])
    rows = [np.empty(0) for law_stats in stats for _ in law_stats]
    for lo, hi in zip([0, *looks], looks):
        if lo:  # the look's labels, from the cursor
            normals, rng.bit_generator.state = rng.bit_generator.state, cursor
            idx = np.concatenate((idx, _labels(rng, gm.weights, hi - lo)))
            cursor, rng.bit_generator.state = rng.bit_generator.state, normals
        # grown before the look's scratch is made, so that the scratch, freed at the
        # end of the look, leaves no hole under the rows that keeps the heap large
        rows = [np.concatenate((row, np.empty(hi - lo))) for row in rows]
        z = rng.standard_normal((hi - lo, gm.dim))
        looked = iter(rows)
        for j, (g, law_stats, order, law, k, scored) in enumerate(plans):
            pts = g._place(idx, z, out=z if j == len(laws) - 1 else None, first=lo)
            x = pts if law is g else np.take(pts, order, axis=1)  # C-ordered: the score's bits
            log_f, log_prefix, score = law._kernel(x, k, scored, out=x)  # no row reads the points
            if scored and law is not g:
                score = score[:, np.argsort(order)]  # back to the coordinates of g
            for stat in law_stats:
                _row(stat, log_f, log_prefix, score, out=next(looked)[lo:hi])
            del pts, x, log_f, log_prefix, score  # only the rows outlive a look
        del z
        if len(rows) == 1:
            est = _mean_and_se(rows[0], METHOD_MC)
            yield [est], np.array([[est.std_error**2]])
            continue
        cov = np.cov(rows, ddof=1) / hi
        yield [ScalarEstimate(float(np.mean(row)), float(np.sqrt(var)), hi, METHOD_MC)
               for row, var in zip(rows, cov.diagonal())], cov


# the draw memo of the running ``_draw_memo`` scope, or None outside one
_MEMO = ContextVar("epicheck_draw_memo", default=None)


@contextmanager
def _draw_memo():
    """A scope in which ``_term_looks`` draws each sampled draw group once.  A
    later plan's group with the same RNG role, the same law objects, the same
    statistics and the same looks replays the looks already drawn, and reads
    any later look from the same ``_sampled`` draws, whose label cursor lives
    in their frame, so every estimate is bitwise the one a fresh generator
    gives.  A role must therefore key one stream for the whole scope: it
    covers the records of one check on one instance.  The memo holds the
    laws, so their ids are not reused while it lives, and it is dropped when
    the scope ends, by return or by raise."""
    token = _MEMO.set({})
    try:
        yield
    finally:
        _MEMO.reset(token)


def _stats_key(law_stats) -> tuple:
    """The statistics of a draw group's laws as a hashable value: a direction
    by its bytes, any other argument by its repr."""
    return tuple(tuple((kind, arg.tobytes() if isinstance(arg, np.ndarray) else repr(arg))
                       for kind, arg in s) for s in law_stats)


def _replayed(draws, seen):
    """The looks of a memoised draw group: those in ``seen``, then the next of
    ``draws``, each kept in ``seen`` for the next reader."""
    for j in count():
        if j == len(seen):
            seen.append(next(draws))
        yield seen[j]


def _term_looks(groups, looks, rng_for):
    """Estimates of the statistics of the draw groups (law, RNG role, stats), in
    order, and their block-diagonal covariance, at each look m_j of the
    increasing ``looks``.  A group whose laws (``_shared``) are all pure
    Gaussians takes the closed forms, once, and no generator; any other group
    draws from ``rng_for(role)``, one generator per group, and extends its
    draws from look to look (``_sampled``), so a caller that stops at a look
    has drawn nothing beyond it.  Within a ``_draw_memo`` scope a group drawn
    before is replayed, and ``rng_for`` is not called for it.  The counts are
    checked (``_counts``) before a route is chosen."""
    _counts(looks)
    memo = _MEMO.get()
    parts = []
    for law, role, stats in groups:
        laws, law_stats = _shared(law, stats)
        if all(g.is_gaussian for g in laws):
            parts.append([est for g, s in zip(laws, law_stats)
                          for est in _closed(s, g.components[0])])
        elif memo is None:
            parts.append(_sampled(law, stats, looks, rng_for(role)))
        else:
            key = (role, tuple(map(id, laws)), _stats_key(law_stats), tuple(looks))
            if key not in memo:  # the laws are kept so that no other law takes their ids
                memo[key] = (laws, _sampled(law, stats, looks, rng_for(role)), [])
            parts.append(_replayed(*memo[key][1:]))
    for _ in looks:
        ests, blocks = [], []
        for part in parts:
            if isinstance(part, list):
                ests += part
                continue
            group, block = next(part)
            blocks.append((slice(len(ests), len(ests) + len(group)), block))
            ests += group
        cov = np.zeros((len(ests), len(ests)))
        for span, block in blocks:
            cov[span, span] = block
        yield ests, cov


def _terms(groups, m: int, rng_for) -> tuple[list, np.ndarray]:
    """The estimates and covariance of the draw groups at one look, m draws."""
    return next(_term_looks(groups, (m,), rng_for))


def _estimate(gm: GaussianMixture, stat, m: int, rng) -> ScalarEstimate:
    """One statistic of one law, drawing from ``rng`` on the Monte-Carlo route."""
    return _terms([(gm, None, (stat,))], m, lambda _role: rng)[0][0]


def _direction(u, n: int) -> np.ndarray:
    """u as a flat array of length n; |u|^2 must be within 1e-12 of 1 (NaN fails)."""
    u = np.asarray(u, dtype=float).reshape(-1)
    if u.shape[0] != n:
        raise DimensionError(f"direction of length {u.shape[0]} for dimension {n}")
    if not abs(float(u @ u) - 1.0) <= 1e-12:
        raise ValueError(f"direction must be a unit vector to 1e-12, got {u}")
    return u


def _npow(h, n: int):
    """exp(2 h / n) of an entropy value h, real or complex (``_delta``'s step)."""
    return np.exp((2.0 / n) * h)


def entropy_power(h: ScalarEstimate, n: int) -> ScalarEstimate:
    """N = exp(2 h / n); the error bar follows by the delta method.  With
    n = 1 it is exp(2h), the form the lambda-weighted checks compare."""
    if n < 1:
        raise DimensionError("dimension must be at least 1")
    value, se = _delta(lambda v: _npow(v[0], n), [h.value], [[h.std_error**2]])
    return ScalarEstimate(value, se, h.n_samples, h.method)


def entropy(
    gm: GaussianMixture,
    m: int = DEFAULT_SAMPLES,
    rng: np.random.Generator | None = None,
) -> ScalarEstimate:
    """Closed form for a pure Gaussian, Monte-Carlo otherwise."""
    return _estimate(gm, ENTROPY, m, rng)


def knn_entropy(samples, k: int = 4) -> ScalarEstimate:
    """Kozachenko-Leonenko nearest-neighbour entropy of a sample cloud.

    h ~ psi(m) - psi(k) + ln(unit-ball volume) + (d/m) sum ln r_i with r_i
    the Euclidean distance to the k-th neighbour.  Duplicate points get a
    deterministic sub-1e-9 jitter (with a warning) so the log distances
    stay finite.  The standard error is a 10-fold grouped jackknife.  The k-d
    tree and the digamma function come from scipy, imported here at the first
    call: no other estimator needs ``scipy.spatial`` or ``scipy.special``.
    """
    from scipy.spatial import cKDTree
    from scipy.special import digamma

    x = np.array(samples, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2:
        raise DimensionError(f"samples must be a (m, d) array, got shape {x.shape}")
    m, d = x.shape
    if not _is_int(k) or not 1 <= k < m:
        raise ValueError(f"need an integer 1 <= k < m, got k={k!r}, m={m}")

    r = cKDTree(x).query(x, k=k + 1)[0][:, k]
    if np.any(r <= 0.0):
        warnings.warn(
            "duplicate sample points detected; applying a tiny deterministic jitter",
            RuntimeWarning,
        )
        spread = float(np.mean(np.std(x, axis=0)))
        jitter_rng = rng_from_tokens("knn-jitter", stable_digest([x]))
        x = x + 1e-10 * max(spread, 1.0) * jitter_rng.standard_normal(x.shape)

    log_ball = 0.5 * d * np.log(np.pi) - math.lgamma(0.5 * d + 1.0)

    def estimate(points: np.ndarray) -> float:
        mm = points.shape[0]
        dist = cKDTree(points).query(points, k=k + 1)[0][:, k]
        return float(
            digamma(mm) - digamma(k) + log_ball + d * np.mean(np.log(dist))
        )

    value = estimate(x)
    folds = np.array_split(np.arange(m), 10)
    folds = [f for f in folds if f.size]
    thetas = np.array([estimate(np.delete(x, f, axis=0)) for f in folds])
    return ScalarEstimate(value, _jackknife(thetas), m, METHOD_KNN)


def conditional_entropy(
    gm: GaussianMixture,
    given,
    m: int = DEFAULT_SAMPLES,
    rng: np.random.Generator | None = None,
) -> ScalarEstimate:
    """h(rest | coordinates in ``given``) = h(joint) - h(marginal).

    The Monte-Carlo route evaluates both log-densities on the same draws,
    from one whitening pass with the conditioning coordinates leading, so
    the per-sample difference is paired and the error bar reflects the
    (much smaller) variance of the difference.
    """
    given = sorted(_coordinates(given, gm.dim, proper=True))
    return _estimate(gm, ("conditional_entropy", given), m, rng)


def fisher(
    gm: GaussianMixture,
    m: int = DEFAULT_SAMPLES,
    rng: np.random.Generator | None = None,
) -> ScalarEstimate:
    """Closed form for a pure Gaussian, Monte-Carlo otherwise."""
    return _estimate(gm, FISHER, m, rng)


def projective_fisher(
    gm: GaussianMixture,
    u,
    m: int = DEFAULT_SAMPLES,
    rng: np.random.Generator | None = None,
) -> ScalarEstimate:
    """Directional Fisher information E[<score, u>^2] for a unit vector u.

    For a pure Gaussian this is u' Sigma^-1 u exactly; in the direction of
    the last axis it equals the reciprocal Schur complement.
    """
    return _estimate(gm, ("projective_fisher", _direction(u, gm.dim)), m, rng)


def conditional_fisher_last(
    gm: GaussianMixture,
    m_outer: int = 1000,
    m_inner: int = 1000,
    rng: np.random.Generator | None = None,
) -> ScalarEstimate:
    """Average Fisher information of the last coordinate given the rest.

    Outer Monte-Carlo over prefixes drawn from the (n-1)-marginal; for each
    prefix the 1-D conditional mixture is formed exactly and its Fisher
    information is estimated with the closed-form score on inner samples.
    The error bar is the spread across outer draws, which also absorbs the
    inner noise.  The conditional laws of all prefixes come from one pass
    over the joint Cholesky factors; only the draws go prefix by prefix, in
    the order a per-prefix loop makes them (``_labels``, then the normals),
    and they are made inside the loop over blocks of prefixes, into the
    block's scratch: memory grows with a block (BLOCK points, or one
    prefix's m_inner) and with K posterior columns per prefix, not with
    m_outer * m_inner.
    """
    if gm.dim < 2:
        raise DimensionError("conditioning needs dimension at least 2")
    if rng is None:
        raise ValueError("a generator is required for the Monte-Carlo route")
    if not (_is_int(m_outer) and _is_int(m_inner)):
        raise ValueError(f"sample counts must be integers, got m_outer={m_outer!r}, "
                         f"m_inner={m_inner!r}")
    if m_outer < 2 or m_inner < 1:  # one outer draw has no error bar
        raise ValueError(f"sample counts must be positive, with at least 2 outer draws, "
                         f"got m_outer={m_outer!r}, m_inner={m_inner!r}")
    log_w, means, sds = gm._condition_last(gm.marginal(range(gm.dim - 1)).sample(rng, m_outer))
    cdf = np.exp(log_w)
    cdf /= cdf.sum(axis=0)  # the posterior weights
    np.cumsum(cdf, axis=0, out=cdf)
    cdf /= cdf[-1]  # each prefix's normalised cumulative weights, as _labels makes them

    # the prefixes' 1-D conditional mixtures, as many at once as fill BLOCK points
    step = max(1, BLOCK // m_inner)
    width = min(m_outer, step) * m_inner
    terms, scores = np.empty(gm.n_components * width), np.empty(gm.n_components * width)
    total, mean_score, pts = np.empty(width), np.empty(width), np.empty(width)
    uniform, key = np.empty(m_inner), np.empty(m_inner, np.min_scalar_type(gm.n_components - 1))
    reached = np.empty((gm.n_components - 1, m_inner), bool)
    vals = np.empty(m_outer)
    for lo in range(0, m_outer, step):
        block = pts[:min(step, m_outer - lo) * m_inner].reshape(-1, m_inner)
        for j, row in enumerate(block, lo):  # the draws of _labels and standard_normal(m_inner)
            hits = np.greater_equal(rng.random(out=uniform), cdf[:-1, j, None], out=reached)
            np.add.reduce(hits, axis=0, dtype=key.dtype, out=key)
            rng.standard_normal(out=row)
            row *= sds[key]
            row += means[key, j]
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
    return _mean_and_se(vals, METHOD_MC)
