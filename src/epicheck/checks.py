"""Gap checkers with statistical verdicts.

One checker per inequality or identity: entropy-power superadditivity
(plain and conditional), the conditional entropy-power forms that lift the
Bergstrom and Ky Fan determinant inequalities, the equal-prefix-entropy
superadditivity of exp(2h) with its Gaussian equality family, the
sharpened Gaussian isoperimetric bound, the de Bruijn derivative identity,
Blachman-Stam and its directional refinement, the squeeze-map identity whose
limit is the directional Fisher information, the sphere quadrature identity,
and the sphere-average recovery of full Fisher information.

Every checker selects its route by instance inspection: pure-Gaussian
inputs go through exact closed forms (zero standard error), mixtures go
through Monte-Carlo with exact scores/log-densities and explicit error
bars.  Verdicts compare the gap against z * stderr plus scale-aware
tolerances; ``violated`` is only returned when the gap is negative beyond
both.  Checks whose verdict is read from one set of draw groups read it at
growing sample sizes and stop once it reads ``holds`` or ``violated``,
under one error budget (``_Run.sides``).
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import astuple, dataclass, replace

import numpy as np

from .estimators import (
    ENTROPY,
    FISHER,
    LN_2PIE,
    _delta,
    _direction,
    _npow,
    _shared,
    _std_error,
    _term_looks,
    _terms,
)
from .exceptions import ConfigError, DimensionError, PreconditionError
from .matrices import (
    SpdMatrix,
    _block_ratios,
    _check_block,
    _check_equal_minors,
    _check_index,
    _check_lambda,
    _chol_logdet,
    _cholesky,
    _deletion_ratios,
    _factored,
    _is_finite,
    _is_int,
    _same_dim,
    _sum_ratios,
    make_bonnesen_equality_pair,
)
from .mixtures import (
    BLOCK,
    LN_2PI,
    GaussianComponent,
    GaussianMixture,
    MarkovTriple,
    _coordinates,
    _covariances,
    _trsm,
)
from .seeding import rng_from_tokens, stable_digest

TWO_PI_E = math.exp(LN_2PIE)

VERDICT_HOLDS = "holds"
VERDICT_EQUALITY = "equality_consistent"
VERDICT_VIOLATED = "violated"
VERDICT_INCONCLUSIVE = "inconclusive"

EQUALITY_GRID_POINTS = 21
# the lambda grid of ``check_equality_case_bonnesen``
_EQUALITY_LAMS = np.linspace(0.0, 1.0, EQUALITY_GRID_POINTS)
_EQUALITY_LAMS.setflags(write=False)

# the squeeze factor M of the ``tm_limit`` record
TM_SQUEEZE = 64.0

# the share of a record's one-sided alpha = Phi(-z) that its early looks spend, evenly
EARLY_SPEND = 0.01

# the normal tail of the look boundaries (``_log_tail``, ``_tail_quantile``)
TAIL_SERIES_FROM = 37.0
LOG_TINY = math.log(sys.float_info.min)
TAIL_NEWTON_STEPS = 3

# the keys of a report record, in order: the JSON record and the CSV columns
REPORT_KEYS = (
    "check_name", "instance_id", "dim", "lambda", "lhs", "rhs",
    "gap", "stderr", "verdict", "seed", "wall_ms",
)


def _numbers(v, min_len: int) -> bool:
    return isinstance(v, (list, tuple)) and len(v) >= min_len and all(map(_is_finite, v))


# argument rules shared by the checks and the suite config (``runner.PARAM_RULES``)


def _heat_steps_ok(t, dt) -> bool:
    """The de Bruijn difference steps: finite numbers with 0 < dt < t."""
    return _is_finite(t) and _is_finite(dt) and 0 < dt < t


def _direction_count_ok(m_dirs) -> bool:
    return _is_int(m_dirs) and m_dirs >= 2


@dataclass(frozen=True)
class CheckConfig:
    """Estimation and verdict parameters shared by all checkers.

    ``m`` is the Monte-Carlo sample size of the last look (``_Run.sides``);
    ``abs_tol`` and ``eq_tol`` are relative to the problem scale
    max(|lhs|, |rhs|, 1); ``rel_stderr_cap`` is the fraction of
    max(|lhs|, |rhs|) beyond which the estimate is declared inconclusive.

    Construction raises ``ConfigError`` (a ``ValueError``) unless ``m`` is
    an integer >= 2, ``seed`` an integer >= 0, ``z`` a finite positive
    number and each tolerance a finite nonnegative number.  A NaN here
    would make every comparison in ``classify`` false, so every gap would
    read ``holds``.
    """

    m: int = 100_000
    seed: int = 0
    z: float = 3.0
    abs_tol: float = 1e-9
    eq_tol: float = 1e-10
    rel_stderr_cap: float = 0.10

    def __post_init__(self):
        if not _is_int(self.m) or self.m < 2:
            raise ConfigError(f"need at least 2 Monte-Carlo samples, got m={self.m!r}")
        if not _is_int(self.seed) or self.seed < 0:
            raise ConfigError(f"seed must be an integer >= 0, got {self.seed!r}")
        if not _is_finite(self.z) or self.z <= 0:
            raise ConfigError(f"z must be a finite positive number, got {self.z!r}")
        for name in ("abs_tol", "eq_tol", "rel_stderr_cap"):
            value = getattr(self, name)
            if not _is_finite(value) or value < 0:
                raise ConfigError(f"{name} must be a finite nonnegative number, got {value!r}")


@dataclass
class InequalityReport:
    """Outcome of a single checker run on a single instance."""

    check_name: str
    instance_id: str
    dim: int
    lam: float | None
    lhs: float
    rhs: float
    gap: float
    stderr: float
    verdict: str
    seed: int
    wall_ms: float

    def to_dict(self) -> dict:
        return dict(zip(REPORT_KEYS, astuple(self)))


def _window(lhs, rhs, stderr, cfg: CheckConfig, extra: float = 0.0) -> tuple[bool, bool]:
    """(below, within) for lhs >= rhs, the one tolerance rule of every verdict,
    gate and precondition.  With gap = lhs - rhs and scale =
    max(|lhs|, |rhs|, 1): below is gap < -(abs_tol * scale + z * stderr), within
    is |gap| <= eq_tol * scale + extra + z * stderr.  Terms that are numpy
    arrays are read elementwise, as boolean arrays.  Non-finite terms raise
    ``ValueError``: NaN fails both comparisons and would read as ``holds``."""
    if isinstance(lhs, np.ndarray) or isinstance(rhs, np.ndarray) or isinstance(stderr, np.ndarray):
        scale = np.maximum(np.maximum(abs(lhs), abs(rhs)), 1.0)  # NaN and inf carry through
        finite = all(np.isfinite(t).all() for t in (scale, stderr, extra))
    else:
        isfinite = math.isfinite
        finite = isfinite(lhs) and isfinite(rhs) and isfinite(stderr) and isfinite(extra)
        scale = max(abs(lhs), abs(rhs), 1.0)
    if not finite:
        raise ValueError(f"verdict window needs finite terms, got {(lhs, rhs, stderr, extra)!r}")
    gap, noise = lhs - rhs, cfg.z * stderr
    return gap < -(cfg.abs_tol * scale + noise), abs(gap) <= cfg.eq_tol * scale + extra + noise


def classify(
    lhs: float, rhs: float, stderr: float, cfg: CheckConfig, extra_eq_tol: float = 0.0
) -> str:
    """Statistical verdict for lhs >= rhs; for array terms, an array of verdicts.

    Order matters: noisy estimates are inconclusive before anything else,
    then a gap below the window (``_window``) is a violation, then a gap
    within it is equality-consistent.
    """
    below, within = _window(lhs, rhs, stderr, cfg, extra_eq_tol)
    if isinstance(below, np.ndarray):
        noisy = stderr > cfg.rel_stderr_cap * np.maximum(abs(lhs), abs(rhs))
        return np.where(noisy, VERDICT_INCONCLUSIVE, np.where(
            below, VERDICT_VIOLATED, np.where(within, VERDICT_EQUALITY, VERDICT_HOLDS)))
    if stderr > cfg.rel_stderr_cap * max(abs(lhs), abs(rhs)):
        return VERDICT_INCONCLUSIVE
    return VERDICT_VIOLATED if below else (VERDICT_EQUALITY if within else VERDICT_HOLDS)


def _looks(m: int) -> list[int]:
    """The sample sizes of a check's looks: BLOCK * 4**j below m, then m."""
    looks = []
    while BLOCK * 4 ** len(looks) < m:
        looks.append(BLOCK * 4 ** len(looks))
    return looks + [m]


def _look_zs(z: float, n_looks: int) -> tuple[float, ...]:
    """The z of each of ``n_looks`` looks.  The early looks share EARLY_SPEND of
    the one-sided alpha = Phi(-z) evenly and the last look spends the rest, so
    by the union bound a record's rate of false ``violated``, and of false
    ``holds`` when its gap is <= 0, stays within alpha (a Haybittle-Peto
    boundary; Jennison & Turnbull, Group Sequential Methods, 2000).  One look
    keeps z.  The tails are in log space, so a large z stays finite."""
    if n_looks == 1:
        return (z,)
    log_alpha = _log_tail(z)[0]
    early = _tail_quantile(log_alpha + math.log(EARLY_SPEND / (n_looks - 1)))
    return (early,) * (n_looks - 1) + (_tail_quantile(log_alpha + math.log1p(-EARLY_SPEND)),)


def _log_tail(z: float) -> tuple[float, float]:
    """(log Phi(-z), Phi(-z) / phi(z)) for z > 0.  Below TAIL_SERIES_FROM the tail
    is erfc(z / sqrt 2) / 2; beyond it, where that nears the bottom of the
    doubles, the ratio is the asymptotic series (1 - 1/z^2 + 3/z^4 - ...) / z
    (Abramowitz & Stegun 26.2.12), summed until its terms fall below 1e-17."""
    if z < TAIL_SERIES_FROM:
        tail = 0.5 * math.erfc(z * math.sqrt(0.5))
        return math.log(tail), tail * math.exp(0.5 * (z * z + LN_2PI))
    inv_sq, term, total, k = 1.0 / (z * z), 1.0, 1.0, 1
    while abs(term) > 1e-17:
        term *= -(2 * k - 1) * inv_sq
        total += term
        k += 1
    return -0.5 * z * z - 0.5 * LN_2PI + math.log(total / z), total / z


def _tail_quantile(log_p: float) -> float:
    """The z > 0 with log Phi(-z) = log_p < log(1/2): the normal quantile of
    exp(log_p), or where that is below the normal doubles the leading terms
    of the tail's asymptote, then Newton steps on ``_log_tail``."""
    from statistics import NormalDist  # only a multi-look record needs it

    if log_p > LOG_TINY:
        z = -NormalDist().inv_cdf(math.exp(log_p))
    else:
        z = math.sqrt(-2.0 * log_p - math.log(-2.0 * log_p) - LN_2PI)
    for _ in range(TAIL_NEWTON_STEPS):
        log_tail, ratio = _log_tail(z)
        z += (log_tail - log_p) * ratio
    return z


def _mixture_arrays(gm: GaussianMixture) -> list:
    arrays = [gm.weights]
    for c in gm.components:
        arrays.append(c.mean)
        arrays.append(c.cov.entries)
    return arrays


def _tag(*objects) -> str:
    """Digest of the arrays of ``objects``; each string among them is appended
    after a dash, as a label of the instance (a deleted index, a block size)."""
    arrays, labels = [], []
    for obj in objects:
        if isinstance(obj, str):
            labels.append(obj)
        elif isinstance(obj, GaussianMixture):
            arrays.extend(_mixture_arrays(obj))
        elif isinstance(obj, MarkovTriple):
            arrays.append(obj.probs)
            for gm in list(obj.x_given_z) + list(obj.y_given_z):
                arrays.extend(_mixture_arrays(gm))
        elif isinstance(obj, SpdMatrix):
            arrays.append(obj.entries)
        else:
            arrays.append(np.asarray(obj, dtype=float))
    return "-".join([stable_digest(arrays), *labels])


class _Run:
    """One call of one check: its name, config (a default ``CheckConfig`` when
    none is given), instance id (the given one, or the ``_tag`` of ``tagged``),
    the generators of its RNG roles, its looks, its clock and its report.
    Every check opens one run, once the arguments it tags are validated, so
    that a bad argument raises the check's own error rather than one from
    ``_tag``."""

    __slots__ = ("name", "cfg", "iid", "t0")

    def __init__(self, name: str, cfg: CheckConfig | None, instance_id: str | None, *tagged):
        self.t0 = time.perf_counter()
        self.name = name
        self.cfg = CheckConfig() if cfg is None else cfg
        self.iid = instance_id
        if tagged:
            self.tag(*tagged)

    def tag(self, *objects) -> None:
        """Name the instance by ``_tag(*objects)`` unless an id was given: for a
        run opened before the arguments it tags are built and validated."""
        self.iid = self.iid or _tag(*objects)

    def rng(self, role: str) -> np.random.Generator:
        """The generator of ``role``, keyed by (seed, check name, instance id, role)."""
        return rng_from_tokens(self.cfg.seed, self.name, self.iid, role)

    def samples(self, groups) -> bool:
        """Whether a draw group (law, RNG role, statistics) of the plan samples.
        If one does, BLAS ``dtrsm`` (``_trsm``) is bound here, off the record's
        clock: the first such record in a process would otherwise carry the
        load of scipy's BLAS wrapper module (about 12 ms)."""
        if all(g.is_gaussian for law, _, stats in groups for g in _shared(law, stats)[0]):
            return False
        bind = time.perf_counter()
        _trsm()
        self.t0 += time.perf_counter() - bind
        return True

    def terms(self, *groups) -> tuple[list, np.ndarray]:
        """Estimates and covariance of the draw groups (law, RNG role, statistics),
        through ``estimators._terms``."""
        self.samples(groups)
        return _terms(groups, self.cfg.m, self.rng)

    def sides(self, read, *groups) -> tuple[float, float, float, str]:
        """(lhs, rhs, stderr, verdict) = ``read(mu, cov, look_cfg)`` of the draw
        groups' means and covariance, look by look (``_classified`` reads one
        lhs/rhs pair).  At each m_j of ``_looks(cfg.m)`` the estimates use the
        first m_j draws of every group and look_cfg is cfg with that look's z
        (``_look_zs``).  The run stops at the first early look that reads
        ``holds`` or ``violated``, or whose lhs == rhs with a zero stderr (an
        identity); ``equality_consistent`` and ``inconclusive`` are otherwise
        only read at the last look.  A plan with no Monte-Carlo group has one
        look, at cfg.z."""
        cfg = self.cfg
        looks = _looks(cfg.m) if self.samples(groups) else [cfg.m]
        zs = _look_zs(cfg.z, len(looks))
        for z, (ests, cov) in zip(zs, _term_looks(groups, looks, self.rng)):
            look_cfg = cfg if z == cfg.z else replace(cfg, z=z)
            lhs, rhs, stderr, verdict = read(np.array([e.value for e in ests]), cov, look_cfg)
            if verdict in (VERDICT_HOLDS, VERDICT_VIOLATED) or (lhs == rhs and stderr == 0.0):
                break
        return lhs, rhs, stderr, verdict

    def report(self, dim: int, lam: float | None, lhs: float, rhs: float, stderr: float,
               verdict: str | None = None) -> InequalityReport:
        """The check's record, classified at cfg.z unless ``verdict`` is given;
        wall_ms runs from the opening of the run."""
        if verdict is None:
            verdict = classify(lhs, rhs, stderr, self.cfg)
        wall_ms = (time.perf_counter() - self.t0) * 1e3
        return InequalityReport(
            self.name, self.iid, dim, lam, lhs, rhs, lhs - rhs, stderr, verdict, self.cfg.seed,
            wall_ms,
        )


def _sides(lhs_fn, rhs_fn, mu, cov) -> tuple[float, float, float]:
    """lhs_fn(mu), rhs_fn(mu) and the delta-method stderr of their gap.  A side that
    is not a finite double leaves the gap non-finite, so ``_delta`` raises OverflowError."""
    mu = np.asarray(mu, dtype=float)
    _, stderr = _delta(lambda v: lhs_fn(v) - rhs_fn(v), mu, cov)
    return float(lhs_fn(mu)), float(rhs_fn(mu)), stderr


def _classified(lhs_fn, rhs_fn, extra: float = 0.0):
    """The reading of a look (``_Run.sides``) for lhs_fn(mu) >= rhs_fn(mu): ``_sides``
    of the means and covariance, and its ``classify`` verdict, equality allowance ``extra``."""
    def read(mu, cov, cfg):
        lhs, rhs, stderr = _sides(lhs_fn, rhs_fn, mu, cov)
        return lhs, rhs, stderr, classify(lhs, rhs, stderr, cfg, extra)
    return read


def _last_given_rest(x: GaussianMixture):
    """The statistic h(X_n | X_1..X_{n-1})."""
    return ("conditional_entropy", list(range(x.dim - 1)))


def _sum_report(run: _Run, x: GaussianMixture, y: GaussianMixture, stat, power) -> InequalityReport:
    """Superadditivity under convolution: power(X+Y) >= power(X) + power(Y),
    with power applied to the statistic ``stat`` of each law, estimated from
    the RNG roles "sum", "x" and "y"."""
    groups = ((law, role, (stat,)) for law, role in ((x.convolve(y), "sum"), (x, "x"), (y, "y")))
    read = _classified(lambda v: power(v[0]), lambda v: power(v[1]) + power(v[2]))
    return run.report(x.dim, None, *run.sides(read, *groups))


# --------------------------------------------------------------------------
# entropy-power checks


def check_epi(
    x: GaussianMixture,
    y: GaussianMixture,
    cfg: CheckConfig | None = None,
    instance_id: str | None = None,
) -> InequalityReport:
    """Entropy-power superadditivity N(X+Y) >= N(X) + N(Y)."""
    n = _same_dim(x, y)
    return _sum_report(_Run("epi", cfg, instance_id, x, y), x, y, ENTROPY, lambda h: _npow(h, n))


def check_conditional_epi(
    triple: MarkovTriple,
    cfg: CheckConfig | None = None,
    instance_id: str | None = None,
) -> InequalityReport:
    """Conditional EPI N(X+Y | Z) >= N(X|Z) + N(Y|Z) for X <- Z -> Y.

    Conditional entropies are label-probability averages; equality needs
    per-label Gaussians whose covariances are proportional with one common
    ratio across labels.
    """
    run = _Run("conditional_epi", cfg, instance_id, triple)
    n = triple.dim
    sums = [
        gx.convolve(gy) for gx, gy in zip(triple.x_given_z, triple.y_given_z)
    ]
    groups = [
        (gm, f"{role}-{z}", (ENTROPY,))
        for role, laws in (("sum", sums), ("x", triple.x_given_z), ("y", triple.y_given_z))
        for z, gm in enumerate(laws)
    ]
    p, k = triple.probs, triple.n_labels  # entropy powers of label-averaged entropies
    read = _classified(lambda v: _npow(p @ v[:k], n),
                       lambda v: _npow(p @ v[k:2 * k], n) + _npow(p @ v[2 * k:], n))
    return run.report(n, None, *run.sides(read, *groups))


def check_entropic_bergstrom(
    x: GaussianMixture,
    y: GaussianMixture,
    cfg: CheckConfig | None = None,
    instance_id: str | None = None,
) -> InequalityReport:
    """Superadditivity of N(X)^n / N_{n-1}(X^{n-1})^{n-1} under convolution.

    The ratio equals exp(2 h(X_n | X^{n-1})), so this is the entropy-power
    lift of the deleted-last-row/column determinant-ratio inequality; for
    Gaussians the gap is exactly 2 pi e times the matrix gap.
    """
    _same_dim(x, y, 2)
    run = _Run("entropic_bergstrom", cfg, instance_id, x, y)
    return _sum_report(run, x, y, _last_given_rest(x), lambda h: _npow(h, 1))


def _convex_split_report(
    run: _Run, x: GaussianMixture, y: GaussianMixture, weight_x: float, lam: float, stat, k: int
) -> InequalityReport:
    """Shared engine for the lambda-weighted forms.

    Checks exp((2/k) h_c(sqrt(wx) X + sqrt(wy) Y)) >= wx * exp((2/k) h_c(X))
    + wy * exp((2/k) h_c(Y)), where h_c is the entropy statistic ``stat``,
    plain or conditional.  Endpoint weights reuse a single estimate on both
    sides, so the gap and its stderr there are exactly zero: an identity,
    which ``_Run.sides`` decides at the first look.
    """
    wx = float(weight_x)
    wy = 1.0 - wx

    if wx == 1.0 or wy == 1.0:
        # one estimate on both sides (weights 1 and 0): the gap and its stderr are exactly zero
        laws, ix, iy = [(x if wx == 1.0 else y, "endpoint")], 0, 0
    else:
        sum_law = x.scale(math.sqrt(wx)).convolve(y.scale(math.sqrt(wy)))
        laws, ix, iy = [(sum_law, "sum"), (x, "x"), (y, "y")], 1, 2
    read = _classified(lambda v: _npow(v[0], k),
                       lambda v: wx * _npow(v[ix], k) + wy * _npow(v[iy], k))
    return run.report(x.dim, lam, *run.sides(read, *((law, role, (stat,)) for law, role in laws)))


def check_conditional_form(
    x: GaussianMixture,
    y: GaussianMixture,
    lam: float,
    cfg: CheckConfig | None = None,
    instance_id: str | None = None,
) -> InequalityReport:
    """Conditional-entropy form: exp(2 h of last coord of
    sqrt(1-lam) X + sqrt(lam) Y given the rest) dominates the convex
    combination (1-lam) exp(2 h(X_n|X^{n-1})) + lam exp(2 h(Y_n|Y^{n-1}))."""
    lam = _check_lambda(lam)
    _same_dim(x, y, 2)
    run = _Run("conditional_form", cfg, instance_id, x, y)
    return _convex_split_report(run, x, y, 1.0 - lam, lam, _last_given_rest(x), 1)


def check_lambda_form(
    x: GaussianMixture,
    y: GaussianMixture,
    lam: float,
    cfg: CheckConfig | None = None,
    instance_id: str | None = None,
) -> InequalityReport:
    """Ratio form along the lambda path: the ratio N^n / N_{n-1}^{n-1} of
    sqrt(lam) X + sqrt(1-lam) Y dominates lam * ratio(X) + (1-lam) * ratio(Y)."""
    lam = _check_lambda(lam)
    _same_dim(x, y, 2)
    run = _Run("lambda_form", cfg, instance_id, x, y)
    return _convex_split_report(run, x, y, lam, lam, _last_given_rest(x), 1)


def check_entropic_kyfan(
    x: GaussianMixture,
    y: GaussianMixture,
    subset,
    lam: float,
    cfg: CheckConfig | None = None,
    instance_id: str | None = None,
) -> InequalityReport:
    """Block version on a coordinate subset I with |I| = k: the k-th root
    of exp(2 h(block | complement)) is superadditive along the lambda path.

    For Gaussians this reduces, after reordering so the complement leads,
    to the k-th-root determinant-ratio gap of the scaled covariance pair.
    """
    lam = _check_lambda(lam)
    n = _same_dim(x, y)
    subset = _coordinates(subset, n, proper=True)  # a proper subset needs n >= 2
    stat = ("conditional_entropy", [i for i in range(n) if i not in subset])
    run = _Run("entropic_kyfan", cfg, instance_id, x, y)
    return _convex_split_report(run, x, y, 1.0 - lam, lam, stat, len(subset))


def _same_law(a: GaussianMixture, b: GaussianMixture) -> bool:
    if a.n_components != b.n_components or a.dim != b.dim:
        return False
    if not np.array_equal(a.weights, b.weights):
        return False
    return all(
        np.array_equal(ca.mean, cb.mean) and np.array_equal(ca.cov.entries, cb.cov.entries)
        for ca, cb in zip(a.components, b.components)
    )


def check_entropic_bonnesen(
    x: GaussianMixture,
    y: GaussianMixture,
    lam: float,
    cfg: CheckConfig | None = None,
    instance_id: str | None = None,
) -> InequalityReport:
    """Superadditivity of exp(2h) itself under equal prefix entropies.

    Requires h(X^{n-1}) = h(Y^{n-1}); then exp(2 h(sqrt(1-lam) X + sqrt(lam) Y))
    dominates (1-lam) exp(2 h(X)) + lam exp(2 h(Y)).  The hypothesis is
    accepted when the prefix marginals are equal as laws, or when their
    entropy estimates agree within tolerance; otherwise a precondition
    error reports both values.
    """
    lam = _check_lambda(lam)
    n = _same_dim(x, y, 2)
    run = _Run("entropic_bonnesen", cfg, instance_id, x, y)

    mx = x.marginal(range(n - 1))
    my = y.marginal(range(n - 1))
    if not _same_law(mx, my):
        ests, cov = run.terms((mx, "pre-x", (ENTROPY,)), (my, "pre-y", (ENTROPY,)))
        hx, hy, stderr = _sides(lambda v: v[0], lambda v: v[1], [e.value for e in ests], cov)
        if not _window(hx, hy, stderr, run.cfg)[1]:
            raise PreconditionError(
                f"prefix entropies differ: h(X^{n-1}) = {hx!r}, "
                f"h(Y^{n-1}) = {hy!r} (stderr {stderr!r})"
            )
    return _convex_split_report(run, x, y, 1.0 - lam, lam, ENTROPY, 1)


def check_equality_case_bonnesen(
    n: int,
    cfg: CheckConfig | None = None,
    rng: np.random.Generator | None = None,
    pair: tuple[SpdMatrix, SpdMatrix] | None = None,
    instance_id: str | None = None,
) -> InequalityReport:
    """Exercise the equality family: covariances differing only in the last
    diagonal entry keep exp(2h) exactly additive along the whole segment.

    Accepts any Gaussian pair whose prefix minors have matching
    determinants (the hypothesis of the linear improvement); runs the
    closed-form route on a 21-point lambda grid and reports the grid point
    with the worst relative gap.  The verdict is equality-consistent only
    when every grid point is, so pairs outside the equality family come
    back as plain holds.
    """
    run = _Run("equality_case_bonnesen", cfg, instance_id)  # its clock covers building the pair
    if pair is None:
        if rng is None:
            rng = rng_from_tokens(run.cfg.seed, run.name, "pair")
        pair = make_bonnesen_equality_pair(n, rng)
    s1, s2 = pair
    n = _same_dim(s1, s2, 2)
    _check_equal_minors(s1, s2, n - 1)
    run.tag(s1, s2)

    e1 = math.exp(n * LN_2PIE + s1.log_det)
    e2 = math.exp(n * LN_2PIE + s2.log_det)
    lams = _EQUALITY_LAMS
    grid = lams[:, None, None]
    # one stacked factorization of the grid, whose log-dets are read by one
    # reduction with the bits each point's own factor gives
    log_dets = _chol_logdet(_cholesky((1.0 - grid) * s1.entries + grid * s2.entries))
    lhs = np.array([math.exp(n * LN_2PIE + log_det) for log_det in log_dets.tolist()])
    rhs = (1.0 - lams) * e1 + lams * e2
    verdicts = classify(lhs, rhs, 0.0, run.cfg)
    if VERDICT_VIOLATED in verdicts:
        overall = VERDICT_VIOLATED
    elif (verdicts == VERDICT_EQUALITY).all():
        overall = VERDICT_EQUALITY
    else:
        overall = VERDICT_HOLDS
    # the first point of largest relative gap
    worst = int(np.argmax(abs(lhs - rhs) / np.maximum(np.maximum(abs(lhs), abs(rhs)), 1.0)))
    return run.report(n, float(lams[worst]), float(lhs[worst]), float(rhs[worst]), 0.0,
                      verdict=overall)


# --------------------------------------------------------------------------
# isoperimetric checks


def _iso_bound(n: int, v):
    """2 pi e (a^(n-1) + (n-1)/a), a = N_{n-1} / N, from h(X) = v[0], h(X^{n-1}) = v[1]."""
    a = _npow(v[1], n - 1) / _npow(v[0], n)
    return TWO_PI_E * (a ** (n - 1) + (n - 1) / a)


def _iso_group(x: GaussianMixture, *extra):
    """The draw group of h(X), h(X^{n-1}) and the ``extra`` statistics of X:
    one group, so the terms share the draws of X."""
    if x.dim < 2:
        raise DimensionError("needs dimension at least 2")
    return x, "mc", (ENTROPY, ("marginal_entropy", list(range(x.dim - 1))), *extra)


def check_isoperimetric_sharp(
    x: GaussianMixture,
    cfg: CheckConfig | None = None,
    instance_id: str | None = None,
) -> InequalityReport:
    """Sharpened isoperimetric bound: I(X) N(X) >= 2 pi e *
    ((N_{n-1}/N)^{n-1} + (n-1) N / N_{n-1}) with N_{n-1} the prefix
    entropy power.  Axis-aligned Gaussians diag(1,..,1,s) meet it with
    equality."""
    run = _Run("isoperimetric_sharp", cfg, instance_id, x)
    n = x.dim
    read = _classified(lambda v: v[2] * _npow(v[0], n), lambda v: _iso_bound(n, v))
    return run.report(n, None, *run.sides(read, _iso_group(x, FISHER)))


def check_isoperimetric_dominance(
    x: GaussianMixture,
    cfg: CheckConfig | None = None,
    instance_id: str | None = None,
) -> InequalityReport:
    """The sharpened bound dominates the classical one: the right-hand side
    above is always >= 2 pi e n, by the arithmetic-geometric mean inequality
    applied to the ratio a = N_{n-1}/N."""
    run = _Run("isoperimetric_dominance", cfg, instance_id, x)
    n = x.dim
    read = _classified(lambda v: _iso_bound(n, v), lambda v: TWO_PI_E * n)
    return run.report(n, None, *run.sides(read, _iso_group(x)))


# --------------------------------------------------------------------------
# Fisher-information checks


def check_de_bruijn(
    x: GaussianMixture,
    t: float = 0.1,
    dt: float = 1e-3,
    cfg: CheckConfig | None = None,
    instance_id: str | None = None,
) -> InequalityReport:
    """Heat-flow derivative identity: d/dt h(X + sqrt(t) Z) = I(X + sqrt(t) Z)/2.

    The left side is a central difference of entropies at t +/- dt; adding
    sqrt(s) Z is realized exactly as a covariance shift + s I of each
    component.  The three smoothed laws are one draw group: on the
    Monte-Carlo route they share their labels and normals, so the finite
    difference is paired, and ``_sides`` bars the gap with the covariance of
    the three terms, look by look (``_Run.sides``).  The equality window is
    widened by an O(dt^2) curvature term.
    """
    if not _heat_steps_ok(t, dt):
        raise ValueError(f"need finite 0 < dt < t, got t={t}, dt={dt}")
    run = _Run("de_bruijn", cfg, instance_id, x)
    n = x.dim
    min_eig = min(float(np.linalg.eigvalsh(c.cov.entries)[0]) for c in x.components)
    extra = dt * dt * n / (min_eig + t - dt) ** 3
    # the covariances + s I of every component at s = t - dt, t, t + dt, factored as one stack
    shifts = np.multiply.outer((t - dt, t, t + dt), np.eye(n))[:, None]
    covs = _factored((_covariances(x) + shifts).reshape(-1, n, n))
    k = x.n_components
    laws = tuple(GaussianMixture(x.weights, [
        GaussianComponent(c.mean, cov) for c, cov in zip(x.components, covs[j * k:(j + 1) * k])
    ]) for j in range(3))
    read = _classified(lambda v: (v[2] - v[0]) / (2.0 * dt), lambda v: 0.5 * v[1], extra)
    return run.report(n, None, *run.sides(read, (laws, "mc", ((ENTROPY,), (FISHER,), (ENTROPY,)))))


def check_blachman_stam(
    x: GaussianMixture,
    y: GaussianMixture,
    cfg: CheckConfig | None = None,
    instance_id: str | None = None,
) -> InequalityReport:
    """Superadditivity of inverse Fisher information:
    1/I(X+Y) >= 1/I(X) + 1/I(Y)."""
    _same_dim(x, y)
    run = _Run("blachman_stam", cfg, instance_id, x, y)
    return _sum_report(run, x, y, FISHER, lambda i: 1.0 / i)


def check_projective_fisher(
    x: GaussianMixture,
    y: GaussianMixture,
    u,
    cfg: CheckConfig | None = None,
    instance_id: str | None = None,
) -> InequalityReport:
    """Directional refinement of Blachman-Stam: inverse directional Fisher
    information along a unit vector u is superadditive under convolution.
    For u = e_n on Gaussians the inverses are Schur complements, so the gap
    matches the deleted-last-row/column determinant-ratio gap."""
    stat = ("projective_fisher", _direction(u, _same_dim(x, y)))
    run = _Run("projective_fisher", cfg, instance_id, x, y, u)
    return _sum_report(run, x, y, stat, lambda i: 1.0 / i)


def compression_map(n: int, m: float) -> np.ndarray:
    """Identity with the last axis squeezed by 1/m."""
    t = np.eye(n)
    t[n - 1, n - 1] = 1.0 / m
    return t


def check_tm_limit(
    x: GaussianMixture,
    cfg: CheckConfig | None = None,
    instance_id: str | None = None,
) -> InequalityReport:
    """Squeeze-map identity at M = TM_SQUEEZE: the score of T_M X at T_M x is
    diag(1, .., 1, M) s_X(x), so exactly

        I(T_M X) / M^2 = I_{e_n}(X) + (I(X) - I_{e_n}(X)) / M^2,

    whose M -> infinity limit is the directional Fisher information along
    the last axis.  The lhs is read from T_M X's own draws (role "tm-<M>"),
    the rhs from one independent group of X (role "target") with both Fisher
    terms on shared draws: draws of T_M X made by squeezing X's draws would
    satisfy the identity sample by sample and test nothing.  Read look by
    look (``_Run.sides``).
    """
    if x.dim < 2:
        raise DimensionError("needs dimension at least 2")
    run = _Run("tm_limit", cfg, instance_id, x)
    squeezed = (x.linear_map(compression_map(x.dim, TM_SQUEEZE)), f"tm-{TM_SQUEEZE}", (FISHER,))
    sq = TM_SQUEEZE**2
    target = (x, "target", (("projective_fisher", np.eye(x.dim)[-1]), FISHER))
    read = _classified(lambda v: v[0] / sq, lambda v: v[1] + (v[2] - v[1]) / sq)
    return run.report(x.dim, None, *run.sides(read, squeezed, target))


def check_sphere_identity(
    v,
    cfg: CheckConfig | None = None,
    instance_id: str | None = None,
) -> InequalityReport:
    """Uniform-sphere quadrature: the average of <u, v>^2 over uniform unit
    vectors u equals |v|^2 / n."""
    v = np.asarray(v, dtype=float).reshape(-1)
    n = v.shape[0]
    if n < 1 or not np.all(np.isfinite(v)) or not np.any(v):
        raise ValueError("need a finite nonzero direction vector")
    run = _Run("sphere_identity", cfg, instance_id, v)
    z = run.rng("dirs").standard_normal((run.cfg.m, n))
    u = z / np.linalg.norm(z, axis=1, keepdims=True)
    vals = (u @ v) ** 2
    return run.report(n, None, float(vals.mean()), float(v @ v) / n, _std_error(vals))


def check_stam_recovery(
    x: GaussianMixture,
    y: GaussianMixture,
    m_dirs: int = 256,
    cfg: CheckConfig | None = None,
    instance_id: str | None = None,
) -> InequalityReport:
    """Sphere-average recovery of Fisher information, two facts at once.

    The terms are the score second moments M_ij = E[s_i s_j], i <= j, of X
    and of Y (RNG roles "x" and "y") and I(X+Y) (role "sum"); I(X) and I(Y)
    are the traces of M.  Over m_dirs uniform unit vectors u (role "dirs"),
    I_u = u' M u is the directional Fisher information.  (a) n times the
    direction mean of I_u(X) reproduces tr M_X (a quadrature identity); if
    this gate fails the verdict is inconclusive.  (b) the direction-wise
    harmonic combination mid = n * avg_u (1/I_u(X) + 1/I_u(Y))^-1 sits
    between I(X+Y) and the Blachman-Stam bound (1/I(X) + 1/I(Y))^-1; the
    reported gap is the lower link mid - I(X+Y), and a failure of the upper
    link is a violation.  Both links carry the delta-method error of the
    moments plus, as an independent variance, the CLT error of the mean over
    the directions; the gate carries that direction error alone.  All three
    are read look by look at each look's z (``_Run.sides``), so a record
    that stops early reads its upper link and gate at the early look's z.
    """
    n = _same_dim(x, y)
    if not _direction_count_ok(m_dirs):
        raise ValueError(f"need an integer count of at least two directions, got {m_dirs!r}")
    run = _Run("stam_recovery", cfg, instance_id, x, y)
    dirs = run.rng("dirs").standard_normal((m_dirs, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    k = len(pairs)
    # u' M u = sum over i <= j of (2 - [i == j]) u_i u_j M_ij, as one product with the k moments
    quad = np.stack([(1.0 if i == j else 2.0) * dirs[:, i] * dirs[:, j] for i, j in pairs], 1)
    diag = [pairs.index((i, i)) for i in range(n)]
    moments = tuple(("score_moment", ij) for ij in pairs)

    def mid(v):
        return n * np.mean(1.0 / (1.0 / (quad @ v[:k]) + 1.0 / (quad @ v[k:2 * k])))

    def bound(v):
        return 1.0 / (1.0 / np.sum(v[diag]) + 1.0 / np.sum(v[k:2 * k][diag]))

    def read(mu, cov, look_cfg):
        px, py = quad @ mu[:k], quad @ mu[k:2 * k]
        se_dirs = _std_error(n / (1.0 / px + 1.0 / py))
        lhs, rhs, se = _sides(mid, lambda v: v[2 * k], mu, cov)
        stderr = math.hypot(se, se_dirs)
        verdict = classify(lhs, rhs, stderr, look_cfg)
        upper, middle, se = _sides(bound, mid, mu, cov)
        if _window(upper, middle, math.hypot(se, se_dirs), look_cfg)[0]:
            verdict = VERDICT_VIOLATED
        ident = n * px
        if not _window(float(ident.mean()), float(np.sum(mu[diag])), _std_error(ident),
                       look_cfg)[1]:
            verdict = VERDICT_INCONCLUSIVE
        return lhs, rhs, stderr, verdict

    groups = (x, "x", moments), (y, "y", moments), (x.convolve(y), "sum", (FISHER,))
    return run.report(n, None, *run.sides(read, *groups))


# --------------------------------------------------------------------------
# matrix-level wrappers


def check_matrix_bergstrom(
    a: SpdMatrix,
    b: SpdMatrix,
    i: int,
    cfg: CheckConfig | None = None,
    instance_id: str | None = None,
) -> InequalityReport:
    """Determinant-ratio superadditivity with row/column i deleted, as an
    exact closed-form report."""
    n = _same_dim(a, b, 2)
    i = _check_index(i, n)
    run = _Run("matrix_bergstrom", cfg, instance_id, a, b, f"i{i}")
    term_s, term_a, term_b = _sum_ratios(_deletion_ratios, a, b)
    return run.report(n, None, float(term_s[i]), float(term_a[i] + term_b[i]), 0.0)


def check_matrix_kyfan(
    a: SpdMatrix,
    b: SpdMatrix,
    k: int,
    cfg: CheckConfig | None = None,
    instance_id: str | None = None,
) -> InequalityReport:
    """k-th-root determinant-ratio superadditivity over the leading block,
    as an exact closed-form report."""
    n = _same_dim(a, b)
    k = _check_block(k, n)
    run = _Run("matrix_kyfan", cfg, instance_id, a, b, f"k{k}")
    term_s, term_a, term_b = _sum_ratios(_block_ratios, a, b)
    return run.report(n, None, float(term_s[k - 1]), float(term_a[k - 1] + term_b[k - 1]), 0.0)
