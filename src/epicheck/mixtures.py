"""Finite Gaussian mixtures with exact densities, scores, and closure ops.

Mixtures are the carrier family for every Monte-Carlo check: they are
closed under independent sums, nonzero scaling, coordinate marginals,
invertible linear maps, and conditioning on all but the last coordinate,
and their log-density and score are exact (log-sum-exp over component
Gaussians, responsibility-weighted Gaussian scores).  A single-component
mixture is detected everywhere as "pure Gaussian" so closed forms can be
used instead of sampling.

Also defines the finite-label Markov triple (Z discrete, X and Y mixtures
conditionally independent given Z) used by the conditional entropy-power
check.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import json
import os
import sys

import numpy as np

from .exceptions import DegenerateLawError, DimensionError
from .matrices import SpdMatrix, _chol_logdet, _factored, _is_int

LN_2PI = float(np.log(2.0 * np.pi))
WEIGHT_TOL = 1e-12


BLOCK = 8192  # points per block of the mixture kernel: its scratch memory does not grow with m


def _coordinates(keep, n: int, proper: bool = False) -> list[int]:
    """A list of coordinates of an n-dimensional law as ints, in the order given.
    In this order: each must be an integer (a float or a bool raises ValueError,
    so 1.7 is refused rather than read as coordinate 1), none repeated
    (ValueError), each in range (IndexError), and the list nonempty and, with
    ``proper``, shorter than n (DimensionError)."""
    keep = list(keep)
    if not all(map(_is_int, keep)):
        raise ValueError(f"coordinates must be integers, got {keep!r}")
    keep = [int(i) for i in keep]
    if len(set(keep)) != len(keep):
        raise ValueError(f"duplicate coordinates in {keep}")
    if any(not 0 <= i < n for i in keep):
        raise IndexError(f"coordinates {keep} out of range for dimension {n}")
    if not keep or (proper and len(keep) >= n):
        raise DimensionError(f"need a nonempty{' proper' if proper else ''} subset, got {keep}")
    return keep


def _logsumexp(a: np.ndarray, out: np.ndarray, g: np.ndarray | None = None,
               g_out: np.ndarray | None = None) -> None:
    """log sum_c exp(a[c]) over the K terms stacked in the C-ordered (K, L, B)
    ``a``, into (L, B) ``out``, in two passes over the stack: the largest term
    a*, then a* + log1p(rest), where rest sums exp(a_c - a*) over every term
    but the first largest (Blanchard, Higham & Higham, IMA J. Numer. Anal.
    2021).  With (K, d, B) ``g``, (d, B) ``g_out`` gets the mean of the g[c]
    weighted by exp(a[c, -1]).  ``a`` is overwritten.  Where every term is
    -inf the result is -inf and the mean is g[0].
    """
    k = a.shape[0]
    top = np.max(a, axis=0, out=out)
    dead = top == -np.inf
    if dead.any():  # no term reaches these points: the first one stands in alone
        a[0][dead] = top[dead] = 0.0
    np.subtract(a, top, out=a)
    rank = np.equal(a, 0.0, out=np.empty(a.shape, np.min_scalar_type(k)))
    rank *= np.arange(k, 0, -1, dtype=rank.dtype)[:, None, None]  # K - c at the largest terms
    first = k - rank.max(axis=0).astype(np.intp)
    np.minimum(first, k - 1, out=first)  # a NaN term leaves none; the result there is NaN
    np.exp(a, out=a)
    if g is not None:
        np.einsum("kb,kdb->db", a[:, -1], g, out=g_out)
    a.reshape(-1)[first * first.size + np.arange(first.size).reshape(first.shape)] = 0.0
    rest = np.sum(a, axis=0)
    if g is not None:
        g_out /= 1.0 + rest[-1]
    out += np.log1p(rest, out=rest)
    out[dead] = -np.inf


def _labels(rng: np.random.Generator, weights: np.ndarray, m: int) -> np.ndarray:
    """The labels ``rng.choice(len(weights), size=m, p=weights)`` draws, bit
    for bit and with the generator left in the same state, in a key of the
    narrowest unsigned type: u from ``rng.random`` in BLOCK pieces, each
    label the number of normalised cumulative weights u reaches."""
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    key = np.empty(m, np.min_scalar_type(cdf.size - 1))
    u = np.empty(min(m, BLOCK))
    reached = np.empty((cdf.size - 1, u.size), bool)  # u < 1 = cdf[-1] always
    for lo in range(0, m, BLOCK):
        draws = rng.random(out=u[:min(BLOCK, m - lo)])
        hits = np.greater_equal(draws, cdf[:-1, None], out=reached[:, :draws.size])
        np.add.reduce(hits, axis=0, dtype=key.dtype, out=key[lo:lo + draws.size])
    return key


def _skip(rng: np.random.Generator, count: int) -> None:
    """Leave the Philox ``rng`` in the state ``rng.random(count)`` leaves (one
    64-bit word per double) without making the doubles: the buffer's words are
    drawn, the counter jumps four words a step (Salmon et al., SC'11), and as
    ``advance`` drops the buffer and a saved 32-bit half, the last one to four
    words are drawn and the half put back.  Other generators raise TypeError."""
    bits = rng.bit_generator
    if not isinstance(bits, np.random.Philox):
        raise TypeError(f"only a Philox generator can skip draws, got {type(bits).__name__}")
    state = bits.state
    rest = count - min(count, 4 - state["buffer_pos"])
    rng.random(count - rest)
    if rest:
        bits.advance((rest - 1) // 4)
        bits.state = {**bits.state, "has_uint32": state["has_uint32"],
                      "uinteger": state["uinteger"]}
        rng.random((rest - 1) % 4 + 1)


def _covariances(gm: "GaussianMixture") -> np.ndarray:
    """The (K, n, n) stack of the component covariances of ``gm``: a read-only
    view of the one covariance of a Gaussian."""
    comps = gm.components
    return comps[0].cov.entries[None] if len(comps) == 1 else np.array([c.cov.entries for c in comps])


@functools.cache
def _trsm():
    """BLAS ``dtrsm``, bound by each call that solves, before its loops.  It is
    read from scipy's compiled wrapper module ``scipy.linalg._fblas`` alone, the
    one ``scipy.linalg.blas.dtrsm`` comes from, without running the
    ``scipy.linalg`` package: that costs about 12 ms and 4 MB where the
    package import costs about 0.15 s and 24 MB.  The module loads when the
    first record that samples opens (``checks._Run.samples``), and a
    closed-form run never loads scipy.

    ``import scipy`` (which on Windows sets up scipy's DLL directories) comes
    first.  A wrapper module already imported is reused; otherwise it is
    loaded by path and then taken out of ``sys.modules`` again, so a later
    ``import scipy.linalg`` loads it as its own, with the same ``dtrsm``."""
    import scipy

    name = "scipy.linalg._fblas"
    fblas = sys.modules.get(name)
    if fblas is None:
        where = [os.path.join(path, "linalg") for path in scipy.__path__]
        spec = importlib.machinery.PathFinder.find_spec(name, where)
        if spec is None:
            raise ImportError(f"no {name} in {os.pathsep.join(where)} (scipy {scipy.__version__})",
                              name=name)
        fblas = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(fblas)
        sys.modules.pop(name, None)
    return fblas.dtrsm


def _whiten(trsm, chol: np.ndarray, pts: np.ndarray, mean: np.ndarray,
            buf: np.ndarray) -> np.ndarray:
    """z = L^-1 (x - mu) for the rows x of ``pts`` (m, n), coordinate-major in
    the C-ordered (n, m) ``buf``: one right-side BLAS solve Z L' = X - mu
    (``trsm``, from _trsm) on the Fortran-ordered (m, n) view of the buffer,
    done in place."""
    np.subtract(pts.T, mean[:, None], out=buf)
    return trsm(1.0, chol, buf.T, side=1, lower=1, trans_a=1, overwrite_b=1).T


class GaussianComponent:
    """Single Gaussian law: mean vector plus SPD covariance."""

    __slots__ = ("mean", "cov")

    def __init__(self, mean, cov) -> None:
        cov = cov if isinstance(cov, SpdMatrix) else SpdMatrix(cov)
        mean = np.atleast_1d(np.array(mean, dtype=float))
        if mean.ndim != 1 or mean.shape[0] != cov.dim:
            raise DimensionError(
                f"mean shape {mean.shape} does not match covariance dimension {cov.dim}"
            )
        if not np.isfinite(mean).all():
            raise ValueError("mean entries must be finite")
        mean.setflags(write=False)
        self.mean = mean
        self.cov = cov

    @property
    def dim(self) -> int:
        return self.cov.dim

    def log_density(self, pts: np.ndarray) -> np.ndarray:
        """Log-density at each row of ``pts`` (m, n)."""
        return GaussianMixture([1.0], [self]).log_density(pts)


class GaussianMixture:
    """Immutable finite mixture of Gaussian components.

    Weights are strictly positive and sum to one within 1e-12.  All
    sampling goes through an explicit ``numpy.random.Generator``.
    """

    __slots__ = ("dim", "weights", "components")

    def __init__(self, weights, components) -> None:
        components = [
            c if isinstance(c, GaussianComponent) else GaussianComponent(*c)
            for c in components
        ]
        if not components:
            raise ValueError("mixture needs at least one component")
        w = np.array(weights, dtype=float).reshape(-1)
        if w.shape[0] != len(components):
            raise DimensionError(
                f"{w.shape[0]} weights for {len(components)} components"
            )
        if not np.isfinite(w).all() or (w <= 0.0).any():
            raise ValueError("mixture weights must be finite and strictly positive")
        if abs(float(w.sum()) - 1.0) > WEIGHT_TOL:
            raise ValueError("mixture weights must sum to 1 within 1e-12")
        dim = components[0].dim
        if any(c.dim != dim for c in components):
            raise DimensionError("all components must share one dimension")
        w.setflags(write=False)
        self.dim = dim
        self.weights = w
        self.components = components

    @classmethod
    def gaussian(cls, mean, cov) -> "GaussianMixture":
        """Single-component mixture, i.e. a plain Gaussian."""
        return cls([1.0], [GaussianComponent(mean, cov)])

    @property
    def n_components(self) -> int:
        return len(self.components)

    @property
    def is_gaussian(self) -> bool:
        return len(self.components) == 1

    def _as_points(self, x) -> tuple[np.ndarray, bool]:
        pts = np.asarray(x, dtype=float)
        single = pts.ndim == 1
        if single:
            pts = pts[None, :]
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise DimensionError(
                f"points of shape {np.shape(x)} do not match dimension {self.dim}"
            )
        if not np.isfinite(pts).all():
            raise ValueError("points must be finite")
        return pts, single

    def _kernel(self, pts: np.ndarray, prefix_len: int = 0, with_score: bool = False,
                out: np.ndarray | None = None):
        """(log f, log f_k of the first k = ``prefix_len`` coordinates or None,
        score or None) at finite (m, n) ``pts``, in blocks of BLOCK points.
        Each component is whitened once per block, z = L^-1 (x - mu): the
        first k rows of z whiten the prefix under the leading block L[:k, :k],
        and L^-T z = Sigma^-1 (x - mu).  The block's terms of all components
        are stacked and combined by one _logsumexp.  The scratch arrays are
        made once per call, so only the outputs grow with m.  The score goes
        into the C-ordered (m, n) ``out``, a fresh array by default; ``out``
        may be ``pts`` itself, whose block is whitened into scratch before the
        block's score is written over it."""
        m, n = pts.shape
        lengths = (prefix_len, n) if prefix_len else (n,)
        consts = [
            [np.log(w) - 0.5 * (k * LN_2PI + _chol_logdet(comp.cov.chol[:k, :k])) for k in lengths]
            for w, comp in zip(self.weights, self.components)
        ]
        n_terms = self.n_components * len(lengths)
        n_res = self.n_components if with_score else 1  # the score keeps every component's z
        terms = np.empty(n_terms * min(m, BLOCK))
        whitened = np.empty(n_res * n * min(m, BLOCK))
        squares = np.empty(n * min(m, BLOCK))
        logs = np.empty((len(lengths), m))
        score = (np.empty((m, n)) if out is None else out) if with_score else None
        trsm = _trsm()
        for lo in range(0, m, BLOCK):
            block = pts[lo:lo + BLOCK]
            b = block.shape[0]
            a = terms[:n_terms * b].reshape(-1, len(lengths), b)
            zs = whitened[:n_res * n * b].reshape(n_res, n, b)
            quads = squares[:n * b].reshape(n, b)
            for c, comp in enumerate(self.components):
                chol = comp.cov.chol
                z = _whiten(trsm, chol, block, comp.mean, zs[c if with_score else 0])
                np.square(z, out=quads)
                for i in range(1, n):  # quads[k - 1] = |z[:k]|^2
                    np.add(quads[i - 1], quads[i], out=quads[i])
                for j, k in enumerate(lengths):
                    np.multiply(quads[k - 1], -0.5, out=a[c, j])
                    a[c, j] += consts[c][j]
                if with_score:  # L^-T z = Sigma^-1 (x - mu), minus the component's score, in place
                    trsm(1.0, chol, z.T, side=1, lower=1, trans_a=0, overwrite_b=1)
            if with_score:
                _logsumexp(a, logs[:, lo:lo + b], zs, score[lo:lo + b].T)
            else:
                _logsumexp(a, logs[:, lo:lo + b])
        if with_score:
            np.negative(score, out=score)
        return logs[-1], logs[0] if prefix_len else None, score

    def log_density(self, x):
        """Exact mixture log-density; stable for arguments as far as |x| ~ 1e6."""
        pts, single = self._as_points(x)
        out = self._kernel(pts)[0]
        return float(out[0]) if single else out

    def score(self, x):
        """Gradient of the log-density: responsibility-weighted Gaussian scores."""
        pts, single = self._as_points(x)
        out = self._kernel(pts, with_score=True)[2]
        return out[0] if single else out

    def sample(self, rng: np.random.Generator, m: int) -> np.ndarray:
        """Draw ``m`` points: categorical component choice, then Cholesky."""
        if not _is_int(m) or m < 1:
            raise ValueError(f"sample count must be a positive integer, got m={m!r}")
        idx = _labels(rng, self.weights, m)
        z = rng.standard_normal((m, self.dim))
        return self._place(idx, z, out=z)

    def _place(self, idx: np.ndarray, z: np.ndarray, out: np.ndarray | None = None,
               first: int = 0) -> np.ndarray:
        """Map standard normal rows ``z``, those of the labels
        ``idx[first:first + len(z)]``, through the components they name into
        ``out`` (a fresh array by default, or ``z`` itself); laws with one
        weight vector share the draws (a draw group of
        ``estimators._sampled``).  BLOCK rows at a time, through scratch made
        once per call, a stable counting sort groups the rows by component,
        each group is placed as mean + rows @ chol.T by one product, and the
        rows go back in draw order.  numpy makes a one-row product a
        matrix-vector product, which rounds differently, so none is made: a
        lone row is multiplied along with the next row, whose result is redone
        or unused.  A row's bits therefore do not depend on how many labels
        the call holds, so a look may place its rows from its own labels."""
        m, n = z.shape
        out = np.empty((m, n)) if out is None else out
        k = self.n_components
        b = min(m, BLOCK)
        rows = np.zeros((b + 1, n))  # the row after a block stays finite: a lone last row's partner
        placed = np.empty((b + 1, n))
        back = np.empty(b, np.intp)
        draw_order = np.arange(b)
        for lo in range(0, m, BLOCK):
            key = idx[first + lo:first + min(lo + BLOCK, m)]
            key = key.astype(np.min_scalar_type(k - 1), copy=False)
            order = np.argsort(key, kind="stable")
            np.take(z[lo:lo + key.size], order, axis=0, out=rows[:key.size])
            start = 0
            for comp, count in zip(self.components, np.bincount(key, minlength=k)):
                if count:
                    width = max(count, 2)  # a lone row's partner: redone or unused
                    np.matmul(rows[start:start + width], comp.cov.chol.T,
                              out=placed[start:start + width])
                    placed[start:start + count] += comp.mean
                start += count
            back[order] = draw_order[:key.size]
            # the indices are in range; "clip" only spares take a buffered copy into out
            np.take(placed, back[:key.size], axis=0, out=out[lo:lo + key.size], mode="clip")
        return out

    def convolve(self, other: "GaussianMixture") -> "GaussianMixture":
        """Law of the sum of independent draws: all pairwise components."""
        if other.dim != self.dim:
            raise DimensionError(f"dimension mismatch: {self.dim} vs {other.dim}")
        n = self.dim
        covs = _factored((_covariances(self)[:, None] + _covariances(other)).reshape(-1, n, n))
        means = [ca.mean + cb.mean for ca in self.components for cb in other.components]
        w = (self.weights[:, None] * other.weights).reshape(-1)
        return GaussianMixture(w / w.sum(), [GaussianComponent(*c) for c in zip(means, covs)])

    def scale(self, s: float) -> "GaussianMixture":
        """Law of s X; s = 0 has no density and is rejected."""
        if s == 0.0:
            raise DegenerateLawError("scaling by zero collapses the law to a point")
        covs = _factored(s * s * _covariances(self))
        return GaussianMixture(self.weights, [
            GaussianComponent(s * c.mean, cov) for c, cov in zip(self.components, covs)
        ])

    def marginal(self, keep) -> "GaussianMixture":
        """Marginal over the listed coordinates, in the order given."""
        keep = _coordinates(keep, self.dim)
        rows, cols = np.ix_(keep, keep)
        covs = _factored(_covariances(self)[:, rows, cols])
        return GaussianMixture(self.weights, [
            GaussianComponent(c.mean[keep], cov) for c, cov in zip(self.components, covs)
        ])

    def linear_map(self, a) -> "GaussianMixture":
        """Law of A X for invertible square A."""
        a = np.asarray(a, dtype=float)
        if a.ndim != 2 or a.shape != (self.dim, self.dim):
            raise DimensionError(
                f"map of shape {a.shape} does not match dimension {self.dim}"
            )
        sign, _ = np.linalg.slogdet(a)
        if sign == 0.0:
            raise ValueError("linear map must be invertible")
        comps = []
        for c in self.components:
            cov = a @ c.cov.entries @ a.T
            comps.append(GaussianComponent(a @ c.mean, 0.5 * (cov + cov.T)))
        return GaussianMixture(self.weights, comps)

    def conditional_slice(self, prefix) -> "GaussianMixture":
        """Exact 1-D conditional of the last coordinate given the first n-1.

        Component weights become posterior responsibilities of the prefix
        under the (n-1)-marginal; each conditional component keeps the usual
        Gaussian conditional mean and the Schur-complement variance.
        """
        n = self.dim
        if n < 2:
            raise DimensionError("conditioning needs dimension at least 2")
        prefix = np.atleast_1d(np.asarray(prefix, dtype=float))
        if prefix.shape != (n - 1,):
            raise DimensionError(
                f"prefix of shape {prefix.shape} does not match dimension {n - 1}"
            )
        if not np.isfinite(prefix).all():
            raise ValueError("prefix must be finite")
        log_w, means, sds = self._condition_last(prefix[None, :])
        w = np.exp(log_w[:, 0])
        # a far component's posterior weight can underflow to 0; the largest is >= 1/K
        live = w > 0.0
        comps = [
            GaussianComponent([mu], [[sd * sd]]) for mu, sd in zip(means[live, 0], sds[live])
        ]
        return GaussianMixture(w[live] / w[live].sum(), comps)

    def _condition_last(self, prefixes: np.ndarray):
        """Posterior log-weights (K, p), means (K, p) and standard deviations
        (K,) of the last coordinate given each row of ``prefixes`` (p, n-1).
        With the joint factor L = [[A, 0], [t', s]], A factors the prefix
        marginal, the mean is mu_n + t' A^-1 (x - mu_<n) and s is the sd."""
        log_w = np.empty((self.n_components, prefixes.shape[0]))
        means = np.empty_like(log_w)
        buf = np.empty((self.dim - 1, prefixes.shape[0]))
        trsm = _trsm()
        for c, (w, comp) in enumerate(zip(self.weights, self.components)):
            a, t = comp.cov.chol[:-1, :-1], comp.cov.chol[-1, :-1]
            y = _whiten(trsm, a, prefixes, comp.mean[:-1], buf)
            quad = np.einsum("ij,ij->j", y, y)
            log_w[c] = np.log(w) - 0.5 * (quad + t.size * LN_2PI + _chol_logdet(a))
            means[c] = comp.mean[-1] + t @ y
        sds = np.array([comp.cov.chol[-1, -1] for comp in self.components])
        total = np.empty((1, prefixes.shape[0]))
        _logsumexp(log_w[:, None, :].copy(), total)  # the copy is overwritten
        return log_w - total, means, sds

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "weights": [float(w) for w in self.weights],
            "components": [
                {
                    "mean": [float(v) for v in c.mean],
                    "cov": [[float(v) for v in row] for row in c.cov.entries],
                }
                for c in self.components
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GaussianMixture":
        comps = [GaussianComponent(c["mean"], c["cov"]) for c in data["components"]]
        gm = cls(data["weights"], comps)
        if "dim" in data and int(data["dim"]) != gm.dim:
            raise DimensionError(
                f"declared dim {data['dim']} does not match components of dim {gm.dim}"
            )
        return gm

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "GaussianMixture":
        return cls.from_dict(json.loads(text))

    def __repr__(self) -> str:
        return f"GaussianMixture(dim={self.dim}, n_components={self.n_components})"


class MarkovTriple:
    """Finite-label conditioning structure X <- Z -> Y.

    Z takes finitely many values with strictly positive probabilities
    summing to one; given Z = z the laws of X and Y are the stored mixtures
    and are conditionally independent, which is the Markov-chain hypothesis
    the conditional entropy-power check needs.
    """

    __slots__ = ("probs", "x_given_z", "y_given_z", "dim")

    def __init__(self, probs, x_given_z, y_given_z) -> None:
        p = np.array(probs, dtype=float).reshape(-1)
        if p.size < 1 or not np.isfinite(p).all() or (p <= 0.0).any():
            raise ValueError("label probabilities must be finite and strictly positive")
        if abs(float(p.sum()) - 1.0) > WEIGHT_TOL:
            raise ValueError("label probabilities must sum to 1 within 1e-12")
        x_given_z = list(x_given_z)
        y_given_z = list(y_given_z)
        if len(x_given_z) != p.size or len(y_given_z) != p.size:
            raise DimensionError("one conditional law required per label, for X and Y")
        dim = x_given_z[0].dim
        if any(g.dim != dim for g in x_given_z + y_given_z):
            raise DimensionError("all conditional laws must share one dimension")
        p.setflags(write=False)
        self.probs = p
        self.x_given_z = x_given_z
        self.y_given_z = y_given_z
        self.dim = dim

    @property
    def n_labels(self) -> int:
        return self.probs.size
