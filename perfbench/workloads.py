"""The four benchmark workloads.

A workload is built from the workload seed (its inputs), then run in
rounds: every round makes the same calls on the same inputs, so a round's
outputs repeat exactly and the share of failed ops is the same in every
run.  ``run_round`` appends the duration of each completed op to a list and
returns (attempted, failed, outputs); ``verify`` checks one round's outputs.
"""

from __future__ import annotations

import dataclasses
import io
import math
import time
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

import inputs
import verify as V

MC_SAMPLES = 100_000
HALF = 0.5  # the lambda of C05's conditional_form checks


@dataclasses.dataclass
class Op:
    kind: str
    call: object  # () -> output
    data: dict = dataclasses.field(default_factory=dict)
    expected_fault: bool = False


def fingerprint(out):
    """Comparable summary of an op output, for round-to-round equality."""
    if out is None:
        return None
    if isinstance(out, np.ndarray):
        return tuple(out.tolist())
    if isinstance(out, tuple):
        return tuple(fingerprint(o) for o in out)
    if hasattr(out, "verdict"):
        return (out.lhs, out.rhs, out.gap, out.stderr, out.verdict)
    if hasattr(out, "std_error"):
        return (out.value, out.std_error, out.method)
    return out


def record(report) -> dict:
    return {k: v for k, v in report.to_dict().items() if k != "wall_ms"}


class OpWorkload:
    """A fixed list of ops; one round runs each op once, in order."""

    def __init__(self) -> None:
        self.ops: list[Op] = []

    def run_round(self, durations: list, recorder=None):
        outputs = []
        failed = 0
        for op in self.ops:
            if recorder is not None:
                recorder.new_scope()
            start = time.perf_counter()
            if op.expected_fault:
                try:
                    out = op.call()
                except Exception:  # the known fault: counted, not raised
                    failed += 1
                    outputs.append(None)
                    continue
            else:
                out = op.call()
            durations.append(time.perf_counter() - start)
            outputs.append(out)
        if recorder is not None:
            recorder.new_scope()
        return len(self.ops), failed, outputs

    def fingerprints(self, outputs):
        return [fingerprint(o) for o in outputs]

    def close(self) -> None:
        pass


# --------------------------------------------------------------------------
# entropy_mc


class EntropyMC(OpWorkload):
    """C05's shape: conditional_form at lambda = 0.5 on random mixture pairs
    (every (K_x, K_y) in {1,2,3}^2, dims 2-4) and on split-Gaussian pairs."""

    def __init__(self, ec, seed: int, m: int = MC_SAMPLES) -> None:
        super().__init__()
        cfg = ec.CheckConfig(m=m, seed=seed)
        checks = ec.checks
        for j, (kx, ky) in enumerate(inputs.COMPONENT_PAIRS):
            rng = inputs.generator(seed, 1, j)
            n = inputs.pair_dim(kx, ky)
            x = mixture(ec, *inputs.mixture_parts(rng, n, kx))
            y = mixture(ec, *inputs.mixture_parts(rng, n, ky))
            self.ops.append(Op("random", lambda x=x, y=y: checks.check_conditional_form(
                x, y, HALF, cfg)))
        for j, n in enumerate((2, 2, 3, 3, 4, 4)):
            rng = inputs.generator(seed, 2, j)
            cov_x, cov_y = inputs.spd(rng, n), inputs.spd(rng, n)
            x = split_gaussian(ec, rng.normal(size=n), cov_x)
            y = split_gaussian(ec, rng.normal(size=n), cov_y)
            self.ops.append(Op(
                "split", lambda x=x, y=y: checks.check_conditional_form(x, y, HALF, cfg),
                {"cov_x": cov_x, "cov_y": cov_y},
            ))

    def verify(self, outputs) -> list[str]:
        fails = []
        random = [record(o) for op, o in zip(self.ops, outputs) if op.kind == "random"]
        fails += V.significant_violations(random, "entropy_mc random pairs")
        fails += V.inconclusive_share((r["verdict"] for r in random), 0.05,
                                      "entropy_mc random pairs")
        devs = [
            split_entropy_deviation(op.data, out)
            for op, out in zip(self.ops, outputs) if op.kind == "split"
        ]
        fails += V.agreement(devs, "entropy_mc split-Gaussian gaps vs slogdet")
        return fails


def split_entropy_deviation(data: dict, report) -> float:
    """Deviation, in reported standard errors, of a split-Gaussian pair's
    conditional_form gap from the exact one: sqrt(1-lam) X + sqrt(lam) Y is
    Gaussian with covariance (1-lam) S_x + lam S_y, and exp(2 h(last | rest))
    of a Gaussian is 2 pi e times the Schur complement."""
    a, b = data["cov_x"], data["cov_y"]
    exact = V.TWO_PI_E * (
        V.leading_ratio((1 - HALF) * a + HALF * b)
        - (1 - HALF) * V.leading_ratio(a) - HALF * V.leading_ratio(b)
    )
    return (report.gap - exact) / report.stderr


# --------------------------------------------------------------------------
# fisher_mc


class FisherMC(OpWorkload):
    """Blachman-Stam, projective Fisher (last axis) and Stam recovery on
    random mixture pairs, the first two also on split-Gaussian pairs, plus
    C13's projective/conditional Fisher pair on 2-D mixtures."""

    def __init__(self, ec, seed: int, m: int = MC_SAMPLES, outer: int = 800,
                 inner: int = 800) -> None:
        super().__init__()
        cfg = ec.CheckConfig(m=m, seed=seed)
        checks = ec.checks
        pair_checks = {
            "blachman_stam": lambda x, y: checks.check_blachman_stam(x, y, cfg),
            "projective_fisher": lambda x, y: checks.check_projective_fisher(
                x, y, last_axis(x.dim), cfg),
            "stam_recovery": lambda x, y: checks.check_stam_recovery(x, y, cfg=cfg),
        }
        for j, (kx, ky) in enumerate(inputs.COMPONENT_PAIRS):
            rng = inputs.generator(seed, 3, j)
            n = inputs.pair_dim(kx, ky)
            x = mixture(ec, *inputs.mixture_parts(rng, n, kx))
            y = mixture(ec, *inputs.mixture_parts(rng, n, ky))
            for name, fn in pair_checks.items():
                self.ops.append(Op("random", lambda fn=fn, x=x, y=y: fn(x, y), {"check": name}))
        for j, n in enumerate((2, 3, 4)):
            rng = inputs.generator(seed, 4, j)
            cov_x, cov_y = inputs.spd(rng, n), inputs.spd(rng, n)
            x = split_gaussian(ec, rng.normal(size=n), cov_x)
            y = split_gaussian(ec, rng.normal(size=n), cov_y)
            for name in ("blachman_stam", "projective_fisher"):
                self.ops.append(Op("split", lambda fn=pair_checks[name], x=x, y=y: fn(x, y),
                                   {"check": name, "cov_x": cov_x, "cov_y": cov_y}))
        est, seeding = ec.estimators, ec.seeding
        for j, k in enumerate((2, 3)):
            gm = mixture(ec, *inputs.mixture_parts(inputs.generator(seed, 5, j), 2, k))

            def pair(gm=gm, j=j):
                return (
                    est.projective_fisher(gm, last_axis(2), m,
                                          seeding.rng_from_tokens(seed, "c13", j, "pf")),
                    est.conditional_fisher_last(gm, outer, inner,
                                                seeding.rng_from_tokens(seed, "c13", j, "cf")),
                )

            self.ops.append(Op("c13", pair))

    def verify(self, outputs) -> list[str]:
        fails = []
        reports = [record(o) for op, o in zip(self.ops, outputs) if op.kind != "c13"]
        fails += V.significant_violations(reports, "fisher_mc")
        devs = []
        for op, out in zip(self.ops, outputs):
            if op.kind == "split":
                devs.append(split_fisher_deviation(op.data, out))
            elif op.kind == "c13":
                pf, cf = out
                devs.append((pf.value - cf.value) / math.hypot(pf.std_error, cf.std_error))
        fails += V.agreement(devs, "fisher_mc split Gaussians and projective/conditional pairs")
        return fails


def split_fisher_deviation(data: dict, report) -> float:
    """Deviation, in reported standard errors, of a split-Gaussian pair's gap
    from its exact value: full Fisher information of a Gaussian is tr S^-1,
    and along the last axis it is 1 / Schur complement."""
    a, b = data["cov_x"], data["cov_y"]
    if data["check"] == "blachman_stam":
        exact = (1.0 / V.trace_inverse(a + b) - 1.0 / V.trace_inverse(a)
                 - 1.0 / V.trace_inverse(b))
    else:
        exact = V.leading_ratio(a + b) - V.leading_ratio(a) - V.leading_ratio(b)
    return (report.gap - exact) / report.stderr


# --------------------------------------------------------------------------
# closed_form


BIG_DIM = 200  # exp(2h) and det overflow a double here (from about n = 150)
DE_BRUIJN_T, DE_BRUIJN_DT = 0.1, 1e-3


class ClosedForm(OpWorkload):
    """Matrix sweeps and Gaussian routes in dims 2-8, no sampling, plus a
    fixed handful of n = 200 Bonnesen ops on inputs that do not depend on
    the seed."""

    def __init__(self, ec, seed: int, per_dim: int = 10) -> None:
        super().__init__()
        cfg = ec.CheckConfig(seed=seed)
        for n in range(2, 9):
            for j in range(per_dim):
                self.ops += self._instance_ops(ec, cfg, n, j, inputs.generator(seed, 6, n, j))
        self._add_big_ops(ec, cfg)

    @staticmethod
    def _instance_ops(ec, cfg, n: int, j: int, rng) -> list[Op]:
        mat, checks, spd_cls = ec.matrices, ec.checks, ec.SpdMatrix
        a, b = inputs.spd(rng, n), inputs.spd(rng, n)
        d1, d2 = inputs.diagonal_pair(rng, n)
        e1, e2 = inputs.equality_pair(rng, inputs.spd(rng, n))
        p1, p2 = inputs.shared_prefix_pair(rng, inputs.spd(rng, n))
        i, k = j % n, 1 + j % (n - 1)
        lam = float(rng.uniform(0.1, 0.9))
        sa, sb, sd1, sd2 = spd_cls(a), spd_cls(b), spd_cls(d1), spd_cls(d2)
        se1, se2, sp1, sp2 = spd_cls(e1), spd_cls(e2), spd_cls(p1), spd_cls(p2)
        gauss = ec.GaussianMixture.gaussian
        gx, gy = gauss(rng.normal(size=n), a), gauss(rng.normal(size=n), b)
        pair = {"a": a, "b": b}
        return [
            Op("bergstrom_all", lambda: mat.bergstrom_gap_all(sa, sb), pair),
            Op("kyfan_all", lambda: mat.kyfan_gap_all(sa, sb), pair),
            Op("matrix_bergstrom", lambda: checks.check_matrix_bergstrom(sa, sb, i, cfg),
               {**pair, "i": i}),
            Op("matrix_kyfan", lambda: checks.check_matrix_kyfan(sa, sb, k, cfg),
               {**pair, "k": k}),
            Op("diagonal_bergstrom_all", lambda: mat.bergstrom_gap_all(sd1, sd2),
               {"a": d1, "b": d2}),
            Op("diagonal_kyfan_all", lambda: mat.kyfan_gap_all(sd1, sd2), {"a": d1, "b": d2}),
            Op("bonnesen_equality", lambda: mat.bonnesen_linear_gap(se1, se2, lam, n - 1),
               {"a": e1, "b": e2, "lam": lam}),
            Op("bonnesen_prefix", lambda: mat.bonnesen_linear_gap(sp1, sp2, lam, n - 1),
               {"a": p1, "b": p2, "lam": lam}),
            Op("equality_case",
               lambda: checks.check_equality_case_bonnesen(n, cfg, pair=(se1, se2))),
            Op("entropic_bergstrom", lambda: checks.check_entropic_bergstrom(gx, gy, cfg), pair),
            Op("isoperimetric_sharp", lambda: checks.check_isoperimetric_sharp(gx, cfg), pair),
            Op("de_bruijn",
               lambda: checks.check_de_bruijn(gx, DE_BRUIJN_T, DE_BRUIJN_DT, cfg), pair),
        ]

    def _add_big_ops(self, ec, cfg) -> None:
        checks, gauss, spd_cls = ec.checks, ec.GaussianMixture.gaussian, ec.SpdMatrix
        for j, lam in enumerate((0.25, 0.75)):
            rng = inputs.generator(BIG_DIM, 7, j)  # fixed: not the workload seed
            a, b = inputs.shared_prefix_pair(rng, inputs.wide_spd(rng, BIG_DIM))
            x, y = gauss(np.zeros(BIG_DIM), a), gauss(np.zeros(BIG_DIM), b)
            self.ops.append(Op(
                "big_entropic_bonnesen",
                lambda x=x, y=y, lam=lam: checks.check_entropic_bonnesen(x, y, lam, cfg),
                expected_fault=True,
            ))
            e1, e2 = inputs.equality_pair(rng, inputs.wide_spd(rng, BIG_DIM))
            pair = (spd_cls(e1), spd_cls(e2))
            self.ops.append(Op(
                "big_equality_case",
                lambda pair=pair: checks.check_equality_case_bonnesen(BIG_DIM, cfg, pair=pair),
                expected_fault=True,
            ))

    def verify(self, outputs) -> list[str]:
        fails = []
        for op, out in zip(self.ops, outputs):
            fails += closed_form_check(op, out)
        return fails


def closed_form_check(op: Op, out) -> list[str]:
    """Output check of one closed_form op against numpy's det/slogdet/inv."""
    what = f"closed_form {op.kind}"
    d = op.data
    fails = []
    if op.expected_fault:
        if out is None:
            return []  # counted as failed; nothing to check
        if op.kind == "big_equality_case":
            return V.verdict_is(out.verdict, "equality_consistent", what)
        return [] if out.verdict != "violated" else [f"{what}: violated"]
    if op.kind in ("bergstrom_all", "kyfan_all"):
        a, b = d["a"], d["b"]
        n = a.shape[0]
        for j, gap in enumerate(out):
            terms = (V.bergstrom_terms(a, b, j) if op.kind == "bergstrom_all"
                     else V.kyfan_terms(a, b, j + 1))
            scale = max(terms)
            fails += V.close(gap, terms[0] - terms[1] - terms[2], scale, 1e-9, f"{what}[{j}]")
            fails += V.not_below_zero(gap, scale, f"{what}[{j}]")
        if len(out) != (n if op.kind == "bergstrom_all" else n - 1):
            fails.append(f"{what}: {len(out)} entries for dimension {n}")
    elif op.kind in ("matrix_bergstrom", "matrix_kyfan"):
        terms = (V.bergstrom_terms(d["a"], d["b"], d["i"]) if op.kind == "matrix_bergstrom"
                 else V.kyfan_terms(d["a"], d["b"], d["k"]))
        scale = max(terms)
        fails += V.close(out.gap, terms[0] - terms[1] - terms[2], scale, 1e-9, what)
        fails += V.not_below_zero(out.gap, scale, what)
    elif op.kind == "diagonal_bergstrom_all":
        for j, gap in enumerate(out):
            fails += V.close(gap, 0.0, max(V.bergstrom_terms(d["a"], d["b"], j)), 1e-10,
                             f"{what}[{j}]")
    elif op.kind == "diagonal_kyfan_all":
        fails += V.close(out[0], 0.0, max(V.kyfan_terms(d["a"], d["b"], 1)), 1e-10, f"{what}[0]")
        for j, gap in enumerate(out):
            fails += V.not_below_zero(gap, max(V.kyfan_terms(d["a"], d["b"], j + 1)),
                                      f"{what}[{j}]")
    elif op.kind in ("bonnesen_equality", "bonnesen_prefix"):
        a, b, lam = d["a"], d["b"], d["lam"]
        dets = (np.linalg.det(lam * a + (1 - lam) * b), np.linalg.det(a), np.linalg.det(b))
        ref = dets[0] - lam * dets[1] - (1 - lam) * dets[2]
        scale = max(abs(v) for v in dets)
        if op.kind == "bonnesen_equality":
            ref = 0.0  # the equality family: det is affine along the segment
        fails += V.close(out, ref, scale, 1e-9, what)
        fails += V.not_below_zero(out, scale, what)
    elif op.kind == "equality_case":
        fails += V.verdict_is(out.verdict, "equality_consistent", what)
    elif op.kind == "entropic_bergstrom":
        terms = V.bergstrom_terms(d["a"], d["b"], d["a"].shape[0] - 1)
        ref = V.TWO_PI_E * (terms[0] - terms[1] - terms[2])
        fails += V.close(out.gap, ref, V.TWO_PI_E * max(terms), 1e-10, what)
    elif op.kind == "isoperimetric_sharp":
        lhs, rhs = isoperimetric_reference(d["a"])
        fails += V.close(out.lhs, lhs, lhs, 1e-9, what + " lhs")
        fails += V.close(out.rhs, rhs, rhs, 1e-9, what + " rhs")
        fails += V.not_below_zero(out.gap, max(lhs, rhs), what)
    elif op.kind == "de_bruijn":
        a = d["a"]
        n = a.shape[0]
        rhs = 0.5 * V.trace_inverse(a + DE_BRUIJN_T * np.eye(n))
        fails += V.close(out.rhs, rhs, rhs, 1e-10, what + " rhs")
        window = DE_BRUIJN_DT**2 * n / (np.linalg.eigvalsh(a)[0] + DE_BRUIJN_T - DE_BRUIJN_DT) ** 3
        if not abs(out.lhs - rhs) <= window + 1e-9 * max(1.0, rhs):
            fails.append(f"{what}: |lhs - rhs| = {abs(out.lhs - rhs)!r} beyond {window!r}")
        fails += V.verdict_is(out.verdict, "equality_consistent", what)
    return fails


def isoperimetric_reference(cov: np.ndarray) -> tuple[float, float]:
    """I(X) N(X) and the sharpened bound for a Gaussian, from det and inv."""
    n = cov.shape[0]
    npow = V.TWO_PI_E * np.linalg.det(cov) ** (1.0 / n)
    npow_m = V.TWO_PI_E * np.linalg.det(cov[:-1, :-1]) ** (1.0 / (n - 1))
    a = npow_m / npow
    return V.trace_inverse(cov) * npow, V.TWO_PI_E * (a ** (n - 1) + (n - 1) / a)


# --------------------------------------------------------------------------
# suite


SUITE_SEEDS = 12
SUITE_CSV_SEEDS = 2  # the CSV writer and JSON/CSV agreement are checked on these
CANDIDATES_PER_SEED = 6


class Suite:
    """The default suite through the CLI over a list of suite seeds derived
    from the workload seed: every seed in JSON, the first two also in CSV,
    and the first once more in JSON to check that a rerun reproduces it.
    One op is one registry runner call (all of a check's lambda records on
    one instance)."""

    def __init__(self, ec, seed: int, out_dir: Path, n_seeds: int = SUITE_SEEDS) -> None:
        import epicheck.cli  # noqa: F401  (the CLI is the path under test)

        self.ec = ec
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.seeds = suite_seeds(ec, seed, n_seeds)
        self._sink: list = []
        self._registry = dict(ec.runner.REGISTRY)
        for name, entry in self._registry.items():
            ec.runner.REGISTRY[name] = dataclasses.replace(entry, run=self._timed(entry.run))
        self.units = [(s, "json") for s in self.seeds]
        self.units += [(s, "csv") for s in self.seeds[:SUITE_CSV_SEEDS]]
        self.units.append((self.seeds[0], "repeat"))

    def _timed(self, run):
        def timed(*args, **kwargs):
            start = time.perf_counter()
            out = run(*args, **kwargs)
            self._sink.append(time.perf_counter() - start)
            return out

        timed.__wrapped_by_perfbench__ = run
        return timed

    def path(self, seed: int, fmt: str) -> Path:
        suffix = "csv" if fmt == "csv" else "json"
        tag = "-repeat" if fmt == "repeat" else ""
        return self.out_dir / f"report-{seed}{tag}.{suffix}"

    def run_round(self, durations: list, recorder=None):
        codes = {}
        attempted = 0
        self._sink = durations
        for s, fmt in self.units:
            if recorder is not None:
                recorder.new_scope()
            before = len(durations)
            argv = ["run", "--seed", str(s), "--out", str(self.path(s, fmt))]
            if fmt == "csv":
                argv += ["--format", "csv"]
            with redirect_stdout(io.StringIO()):
                codes[(s, fmt)] = self.ec.cli.main(argv)
            attempted += len(durations) - before
        if recorder is not None:
            recorder.new_scope()
        return attempted, 0, codes

    def fingerprints(self, outputs):
        return sorted(outputs.items())

    def instance_covs(self, seed: int):
        generate = self.ec.runner.generate_instance

        def covs(family, dim, idx):
            pair = generate(family, dim, idx, seed)
            if family == "spd_pair":
                return pair[0].entries, pair[1].entries
            if all(side.is_gaussian for side in pair):
                return pair[0].components[0].cov.entries, pair[1].components[0].cov.entries
            return None

        return covs

    def verify(self, outputs) -> list[str]:
        fails = []
        for s in self.seeds:
            texts = {fmt: self.path(s, fmt).read_text(encoding="utf-8")
                     for fmt in ("json", "csv", "repeat") if (s, fmt) in outputs}
            codes = [outputs[(s, fmt)] for fmt in ("json", "csv", "repeat") if (s, fmt) in outputs]
            fails += V.suite_report_checks(s, texts["json"], texts.get("csv"), codes,
                                           self.instance_covs(s), texts.get("repeat"))
        return fails

    def close(self) -> None:
        self.ec.runner.REGISTRY.update(self._registry)


def suite_seeds(ec, seed: int, count: int) -> list[int]:
    """Suite seeds drawn from the workload seed, balanced by composition.

    A suite seed's cost varies about 3x with the random mixtures it draws:
    whether the dims-2 and 3 ``mixture_pair`` and ``mixture_single``
    instances are single Gaussians (closed-form ops) and how many components
    the others have.  Every list therefore holds the expected number of
    seeds of each class (number of Gaussian pairs, number of Gaussian
    singles).  Within a class it takes evenly spaced ranks of the pairs'
    component count among the candidates of that class, so lists drawn from
    different workload seeds cost alike.  A fixed number of candidates
    (more only while a class is short) keeps set-up time steady.
    """
    generate = ec.runner.generate_instance
    quotas = class_quotas(count)
    buckets: dict = {c: set() for c in quotas}
    rng = inputs.generator(seed, 0)
    scanned = 0
    while scanned < CANDIDATES_PER_SEED * count or any(
            len(buckets[c]) < n for c, n in quotas.items()):
        s = int(rng.integers(0, 2**31))
        scanned += 1
        pairs = [generate("mixture_pair", dim, 0, s) for dim in (2, 3)]
        singles = [generate("mixture_single", dim, 0, s) for dim in (2, 3)]
        cls = (sum(x.is_gaussian and y.is_gaussian for x, y in pairs),
               sum(g.is_gaussian for g in singles))
        if cls in buckets:
            work = sum(x.n_components + y.n_components
                       for x, y in pairs if not (x.is_gaussian and y.is_gaussian))
            buckets[cls].add((work, s))
    chosen = []
    for cls, n in quotas.items():
        ranked = sorted(buckets[cls])
        step = len(ranked) / n
        chosen += [ranked[int((j + 0.5) * step)][1] for j in range(n)]
    return chosen


def class_quotas(count: int) -> dict:
    """Expected number of suite seeds per (Gaussian pairs, Gaussian singles)
    class, rounded by largest remainder.  A random_mixture draw is a single
    Gaussian with probability 1/3, so a pair is Gaussian with probability 1/9."""
    def binom2(p):
        return ((1 - p) ** 2, 2 * p * (1 - p), p**2)

    shares = {(g, s): pg * ps for g, pg in enumerate(binom2(1 / 9))
              for s, ps in enumerate(binom2(1 / 3))}
    quotas = {c: int(count * p) for c, p in shares.items()}
    by_remainder = sorted(shares, key=lambda c: -(count * shares[c] - quotas[c]))
    for c in by_remainder[: count - sum(quotas.values())]:
        quotas[c] += 1
    return {c: n for c, n in quotas.items() if n}


# --------------------------------------------------------------------------
# helpers


def mixture(ec, weights, means, covs):
    return ec.GaussianMixture(weights, list(zip(means, covs)))


def split_gaussian(ec, mean, cov):
    """A Gaussian written as two identical halves: not detected as Gaussian,
    so it takes the Monte-Carlo route while its exact answer is known."""
    return ec.GaussianMixture([0.5, 0.5], [(mean, cov), (mean, cov)])


def last_axis(n: int) -> np.ndarray:
    u = np.zeros(n)
    u[-1] = 1.0
    return u


def build(name: str, ec, seed: int, out_dir: Path):
    if name == "suite":
        return Suite(ec, seed, out_dir)
    return {"entropy_mc": EntropyMC, "fisher_mc": FisherMC, "closed_form": ClosedForm}[name](
        ec, seed)
