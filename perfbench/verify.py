"""Output checks for the benchmark workloads.

Every check compares epicheck's output either with a value recomputed here
from the inputs with plain numpy (``slogdet``/``det``/``inv``), or with a
property the inequalities guarantee.  No check compares with a stored copy
of earlier output.  Each function returns a list of failure messages; an
empty list means the check passed.

Statistical allowances are sized so that a correct program fails a whole
run with probability below about 1e-6 (``RUN_FAILURE_RATE``):

* agreement with a known exact value counts the deviations beyond
  ``Z_COUNT`` standard errors and allows the number that a binomial law with
  twice the nominal normal tail rate exceeds with probability at most 1e-6;
  a single deviation beyond ``Z_HARD`` standard errors fails outright;
* "no significant violation" fails a Monte-Carlo record only when its gap
  lies more than a Bonferroni-sized number of standard errors below zero.
  The program's own ``violated`` verdict uses z = 3, which a correct program
  returns on an identity record (gap zero in law) with probability 0.13%.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from statistics import NormalDist

import numpy as np

TWO_PI_E = 2.0 * math.pi * math.e
RUN_FAILURE_RATE = 1e-6
Z_COUNT = 3.0
Z_HARD = 7.0
# matches the program's abs_tol: gaps are compared on max(|lhs|, |rhs|, 1)
ABS_TOL = 1e-9
LAMBDA_CHECKS = ("conditional_form", "lambda_form", "entropic_kyfan", "entropic_bonnesen")

_NORMAL = NormalDist()


# --------------------------------------------------------------------------
# reference values (numpy only)


def logdet(m: np.ndarray) -> float:
    sign, value = np.linalg.slogdet(m)
    if sign <= 0:
        raise ValueError("reference matrix is not positive definite")
    return float(value)


def leading_ratio(m: np.ndarray, k: int = 1) -> float:
    """(det(M) / det(leading (n-k) block)) ** (1/k), via slogdet; for k = 1
    this is the Schur complement of the last entry."""
    size = m.shape[0] - k
    return math.exp((logdet(m) - logdet(m[:size, :size])) / k)


def det_ratio(m: np.ndarray, i: int) -> float:
    """det(M) / det(M without row and column i), via det."""
    minor = np.delete(np.delete(m, i, axis=0), i, axis=1)
    return float(np.linalg.det(m) / np.linalg.det(minor))


def kyfan_ratio(m: np.ndarray, k: int) -> float:
    """(det(M) / det(leading (n-k) block)) ** (1/k), via det."""
    size = m.shape[0] - k
    return float((np.linalg.det(m) / np.linalg.det(m[:size, :size])) ** (1.0 / k))


def bergstrom_terms(a, b, i):
    """(ratio of A+B, ratio of A, ratio of B) with row/column i deleted."""
    return det_ratio(a + b, i), det_ratio(a, i), det_ratio(b, i)


def kyfan_terms(a, b, k):
    return kyfan_ratio(a + b, k), kyfan_ratio(a, k), kyfan_ratio(b, k)


def slogdet_gap(a, b, k: int = 1) -> tuple[float, float]:
    """Superadditivity gap of :func:`leading_ratio` under A + B, and its scale.
    k = 1 is the last-index Bergstrom gap; k > 1 the Ky Fan gap."""
    terms = (leading_ratio(a + b, k), leading_ratio(a, k), leading_ratio(b, k))
    return terms[0] - terms[1] - terms[2], max(1.0, *terms)


def trace_inverse(m: np.ndarray) -> float:
    return float(np.trace(np.linalg.inv(m)))


# --------------------------------------------------------------------------
# allowances


def binomial_allowance(n: int, p: float, rate: float = RUN_FAILURE_RATE) -> int:
    """Smallest k with P(Binomial(n, p) > k) <= rate."""
    tail = 1.0
    for k in range(n + 1):
        tail -= math.comb(n, k) * p**k * (1.0 - p) ** (n - k)
        if tail <= rate:
            return k
    return n


def violation_z(n_records: int) -> float:
    """One-sided z with a Bonferroni share of the run failure rate, plus half
    a standard error for the skew a Monte-Carlo mean keeps at finite m."""
    return -_NORMAL.inv_cdf(RUN_FAILURE_RATE / max(n_records, 1)) + 0.5


# --------------------------------------------------------------------------
# checks


def agreement(deviations, what: str) -> list[str]:
    """Deviations from exact values, in units of the reported standard error."""
    devs = [float(d) for d in deviations]
    if not devs:
        return []
    fails = []
    worst = max(devs, key=abs)
    if not all(math.isfinite(d) for d in devs) or abs(worst) > Z_HARD:
        fails.append(f"{what}: a deviation of {worst:.3g} standard errors (limit {Z_HARD})")
    p_nominal = 2.0 * _NORMAL.cdf(-Z_COUNT)
    allowed = binomial_allowance(len(devs), 2.0 * p_nominal)
    beyond = sum(abs(d) > Z_COUNT for d in devs)
    if beyond > allowed:
        fails.append(
            f"{what}: {beyond} of {len(devs)} deviations beyond {Z_COUNT} standard "
            f"errors (at most {allowed} allowed)"
        )
    return fails


def close(value: float, ref: float, scale: float, rtol: float, what: str) -> list[str]:
    if not math.isfinite(value) or abs(value - ref) > rtol * max(1.0, abs(scale)):
        return [f"{what}: {value!r} differs from reference {ref!r} (rtol {rtol} on {scale:.3g})"]
    return []


def not_below_zero(gap: float, scale: float, what: str) -> list[str]:
    if not gap >= -ABS_TOL * max(1.0, abs(scale)):
        return [f"{what}: gap {gap!r} is below zero beyond rounding"]
    return []


def significant_violations(records, what: str) -> list[str]:
    """Records whose gap shows a significant violation of the inequality.

    A closed-form record (stderr 0) fails on any ``violated`` verdict; a
    Monte-Carlo record fails when its gap lies below -(abs_tol * scale +
    z * stderr) with z from :func:`violation_z` over all records checked.
    """
    records = list(records)
    z = violation_z(sum(r["stderr"] > 0 for r in records))
    fails = []
    for r in records:
        scale = max(abs(r["lhs"]), abs(r["rhs"]), 1.0)
        if r["stderr"] == 0.0:
            bad = r["verdict"] == "violated"
        else:
            bad = not r["gap"] >= -(ABS_TOL * scale + z * r["stderr"])
        if bad:
            fails.append(
                f"{what}: {r['check_name']} {r['instance_id']} lambda={r['lambda']} "
                f"gap {r['gap']!r} stderr {r['stderr']!r} ({r['verdict']})"
            )
    return fails


def inconclusive_share(verdicts, limit: float, what: str) -> list[str]:
    verdicts = list(verdicts)
    count = sum(v == "inconclusive" for v in verdicts)
    if count > limit * len(verdicts):
        return [f"{what}: {count} of {len(verdicts)} inconclusive (limit {limit:.0%})"]
    return []


def verdict_is(verdict: str, expected: str, what: str) -> list[str]:
    if verdict != expected:
        return [f"{what}: verdict {verdict!r}, expected {expected!r}"]
    return []


# --------------------------------------------------------------------------
# suite reports


_WALL_MS = re.compile(r'"wall_ms": [^,\n}]+')


def mask_wall_ms(text: str) -> str:
    return _WALL_MS.sub('"wall_ms": _', text)


def csv_records(text: str) -> list[dict]:
    rows = list(csv.DictReader(io.StringIO(text)))
    out = []
    for row in rows:
        out.append({
            "check_name": row["check_name"],
            "instance_id": row["instance_id"],
            "dim": int(row["dim"]),
            "lambda": None if row["lambda"] == "" else float(row["lambda"]),
            "lhs": float(row["lhs"]),
            "rhs": float(row["rhs"]),
            "gap": float(row["gap"]),
            "stderr": float(row["stderr"]),
            "verdict": row["verdict"],
            "seed": int(row["seed"]),
        })
    return out


def suite_report_checks(
    seed: int, json_text: str, csv_text: str, exit_codes, instance_covs, repeat_text=None
) -> list[str]:
    """Checks on the default-suite reports at ``seed``: the JSON report, and
    the CSV report and a second JSON run when there are any.

    ``instance_covs(family, dim, idx)`` returns the two covariance matrices
    of a Gaussian pair instance, or None when a side is not Gaussian.
    """
    what = f"suite seed {seed}"
    fails = []
    report = json.loads(json_text)
    records = report["records"]
    expected_code = 1 if any(r["verdict"] == "violated" for r in records) else 0
    if any(code != expected_code for code in exit_codes):
        fails.append(f"{what}: exit codes {list(exit_codes)}, records imply {expected_code}")
    fails += significant_violations(records, what)

    for r in records:
        if r["check_name"] in LAMBDA_CHECKS and r["lambda"] in (0.0, 1.0) and r["gap"] != 0.0:
            fails.append(
                f"{what}: {r['check_name']} endpoint lambda={r['lambda']} gap {r['gap']!r}")

    for r in records:
        name = r["check_name"]
        if r["stderr"] != 0.0 or name not in (
            "entropic_bergstrom", "projective_fisher", "matrix_bergstrom", "matrix_kyfan"
        ):
            continue
        family, d, idx = r["instance_id"].rsplit("-", 2)
        covs = instance_covs(family, int(d[1:]), int(idx))
        if covs is None:
            fails.append(f"{what}: {name} {r['instance_id']} has stderr 0 but is not Gaussian")
            continue
        a, b = covs
        k = min(2, a.shape[0] - 1) if name == "matrix_kyfan" else 1
        ref, scale = slogdet_gap(a, b, k)
        if name == "entropic_bergstrom":
            ref, scale = TWO_PI_E * ref, TWO_PI_E * scale
        fails += close(r["gap"], ref, scale, 1e-9, f"{what}: {name} {r['instance_id']}")

    stripped = [{k: v for k, v in r.items() if k != "wall_ms"} for r in records]
    if csv_text is not None and csv_records(csv_text) != stripped:
        fails.append(f"{what}: JSON and CSV reports disagree")
    if repeat_text is not None and mask_wall_ms(repeat_text) != mask_wall_ms(json_text):
        fails.append(f"{what}: a second run is not byte-identical apart from wall_ms")
    return fails
