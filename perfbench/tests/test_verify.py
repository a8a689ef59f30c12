"""Every output check rejects a deliberately wrong value.

Each test takes real outputs of a tiny workload run (or a synthetic record
where the real run may not produce the case), corrupts one value, and
asserts that the check reports it.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

import verify as V
import workloads

SHIFT = 10.0  # standard errors


def _replace_output(outputs, index, new):
    out = list(outputs)
    out[index] = new
    return out


def _first(workload, kind, **data):
    for idx, op in enumerate(workload.ops):
        if op.kind == kind and all(op.data.get(k) == v for k, v in data.items()):
            return idx, op
    raise AssertionError(f"no {kind} op")


# --------------------------------------------------------------------------
# statistical allowances


def test_agreement_accepts_calibrated_deviations():
    rng = np.random.default_rng(0)
    assert V.agreement(rng.standard_normal(50), "x") == []


def test_agreement_rejects_one_deviation_of_ten_standard_errors():
    assert V.agreement([0.3, -1.2, SHIFT, 0.8], "x")


def test_agreement_rejects_many_moderate_deviations():
    devs = [3.5] * 5 + [0.0] * 5
    assert V.binomial_allowance(10, 2 * 2 * V._NORMAL.cdf(-V.Z_COUNT)) < 5
    assert V.agreement(devs, "x")


def test_binomial_allowance_meets_the_run_failure_rate():
    p = 0.01
    for n in (1, 6, 30, 200):
        k = V.binomial_allowance(n, p)
        tail = sum(math.comb(n, j) * p**j * (1 - p) ** (n - j) for j in range(k + 1, n + 1))
        assert tail <= V.RUN_FAILURE_RATE
        if k:
            looser = tail + math.comb(n, k) * p**k * (1 - p) ** (n - k)
            assert looser > V.RUN_FAILURE_RATE


def _record(gap, stderr, verdict="holds", lhs=10.0):
    return {"check_name": "epi", "instance_id": "i", "lambda": None, "lhs": lhs,
            "rhs": lhs - gap, "gap": gap, "stderr": stderr, "verdict": verdict}


def test_significant_violations_rejects_a_gap_ten_standard_errors_below_zero():
    assert V.significant_violations([_record(1.0, 0.1)], "x") == []
    assert V.significant_violations([_record(-SHIFT * 0.1, 0.1, "violated")], "x")


def test_significant_violations_tolerates_a_three_sigma_false_alarm():
    assert V.significant_violations([_record(-0.31, 0.1, "violated")] * 3, "x") == []


def test_significant_violations_rejects_any_closed_form_violation():
    assert V.significant_violations([_record(-1e-3, 0.0, "violated")], "x")


def test_inconclusive_share_rejects_more_than_five_percent():
    assert V.inconclusive_share(["holds"] * 19 + ["inconclusive"], 0.05, "x") == []
    assert V.inconclusive_share(["holds"] * 8 + ["inconclusive"], 0.05, "x")


# --------------------------------------------------------------------------
# entropy_mc and fisher_mc


def _shift_away(report, field, deviation, stderr):
    value = getattr(report, field) + math.copysign(SHIFT * stderr, deviation)
    return dataclasses.replace(report, **{field: value})


def test_entropy_mc_rejects_a_split_gap_shifted_by_ten_stderr(tiny_runs):
    workload, outputs = tiny_runs["entropy_mc"]
    idx, op = _first(workload, "split")
    rep = outputs[idx]
    bad = _shift_away(rep, "gap", workloads.split_entropy_deviation(op.data, rep), rep.stderr)
    assert workload.verify(_replace_output(outputs, idx, bad))


def test_entropy_mc_rejects_a_violated_random_pair(tiny_runs):
    workload, outputs = tiny_runs["entropy_mc"]
    idx = next(i for i, (op, o) in enumerate(zip(workload.ops, outputs))
               if op.kind == "random" and o.stderr > 0)
    bad = dataclasses.replace(outputs[idx], gap=-SHIFT * outputs[idx].stderr)
    assert workload.verify(_replace_output(outputs, idx, bad))


def test_entropy_mc_rejects_an_inconclusive_random_pair(tiny_runs):
    workload, outputs = tiny_runs["entropy_mc"]
    idx, _ = _first(workload, "random")
    bad = dataclasses.replace(outputs[idx], verdict="inconclusive")
    assert workload.verify(_replace_output(outputs, idx, bad))


@pytest.mark.parametrize("check", ["blachman_stam", "projective_fisher"])
def test_fisher_mc_rejects_a_split_gap_shifted_by_ten_stderr(tiny_runs, check):
    workload, outputs = tiny_runs["fisher_mc"]
    idx, op = _first(workload, "split", check=check)
    rep = outputs[idx]
    bad = _shift_away(rep, "gap", workloads.split_fisher_deviation(op.data, rep), rep.stderr)
    assert workload.verify(_replace_output(outputs, idx, bad))


def test_fisher_mc_rejects_a_projective_conditional_pair_ten_stderr_apart(tiny_runs):
    workload, outputs = tiny_runs["fisher_mc"]
    idx, _ = _first(workload, "c13")
    pf, cf = outputs[idx]
    combined = math.hypot(pf.std_error, cf.std_error)
    bad_pf = dataclasses.replace(
        pf, value=pf.value + math.copysign(SHIFT * combined, pf.value - cf.value))
    assert workload.verify(_replace_output(outputs, idx, (bad_pf, cf)))


def test_fisher_mc_rejects_a_violated_random_pair(tiny_runs):
    workload, outputs = tiny_runs["fisher_mc"]
    idx = next(i for i, (op, o) in enumerate(zip(workload.ops, outputs))
               if op.kind == "random" and o.stderr > 0)
    bad = dataclasses.replace(outputs[idx], gap=-SHIFT * outputs[idx].stderr)
    assert workload.verify(_replace_output(outputs, idx, bad))


# --------------------------------------------------------------------------
# closed_form


def _corrupt(kind, out):
    """A wrong value for one closed_form op output."""
    if isinstance(out, np.ndarray):
        bad = out.copy()
        bad[0] += 1e-6 * max(1.0, abs(bad[0]))
        return bad
    if isinstance(out, float):
        return out + 1e-3
    if kind in ("equality_case", "de_bruijn"):
        return dataclasses.replace(out, verdict="holds")
    if kind == "isoperimetric_sharp":
        return dataclasses.replace(out, lhs=out.lhs * (1 + 1e-6))
    return dataclasses.replace(out, gap=out.gap + 1e-6 * max(1.0, abs(out.lhs)))


CLOSED_KINDS = (
    "bergstrom_all", "kyfan_all", "matrix_bergstrom", "matrix_kyfan", "diagonal_bergstrom_all",
    "diagonal_kyfan_all", "bonnesen_equality", "bonnesen_prefix", "equality_case",
    "entropic_bergstrom", "isoperimetric_sharp", "de_bruijn",
)


@pytest.mark.parametrize("kind", CLOSED_KINDS)
def test_closed_form_rejects_a_wrong_value(tiny_runs, kind):
    workload, outputs = tiny_runs["closed_form"]
    idx, op = _first(workload, kind)
    assert workloads.closed_form_check(op, outputs[idx]) == []
    assert workloads.closed_form_check(op, _corrupt(kind, outputs[idx]))


def test_closed_form_rejects_a_negative_matrix_gap(tiny_runs):
    workload, outputs = tiny_runs["closed_form"]
    idx, op = _first(workload, "bonnesen_prefix")
    assert workloads.closed_form_check(op, -1e-3)


def test_closed_form_checks_the_big_ops_once_they_succeed(tiny_runs):
    workload, outputs = tiny_runs["closed_form"]
    idx, op = _first(workload, "big_equality_case")
    assert workloads.closed_form_check(op, None) == []
    holds = dataclasses.replace(outputs[_first(workload, "equality_case")[0]], verdict="holds")
    assert workloads.closed_form_check(op, holds)


def test_de_bruijn_rejects_a_wrong_right_hand_side(tiny_runs):
    workload, outputs = tiny_runs["closed_form"]
    idx, op = _first(workload, "de_bruijn")
    bad = dataclasses.replace(outputs[idx], rhs=outputs[idx].rhs * (1 + 1e-6))
    assert workloads.closed_form_check(op, bad)


# --------------------------------------------------------------------------
# suite


def _suite_texts(tiny_suite):
    suite, codes, *_ = tiny_suite
    seed = suite.seeds[0]
    texts = {fmt: suite.path(seed, fmt).read_text() for fmt in ("json", "csv", "repeat")}
    return suite, seed, texts, [codes[(seed, f)] for f in ("json", "csv", "repeat")]


def _check_suite(tiny_suite, json_text=None, csv_text=None, codes=None, repeat=None):
    suite, seed, texts, real_codes = _suite_texts(tiny_suite)
    return V.suite_report_checks(
        seed, json_text or texts["json"], csv_text or texts["csv"], codes or real_codes,
        suite.instance_covs(seed), repeat or texts["repeat"],
    )


def _edit_record(text, match, **changes):
    report = json.loads(text)
    for record in report["records"]:
        if all(record[k] == v for k, v in match.items()):
            record.update(changes)
            return json.dumps(report, indent=2) + "\n"
    raise AssertionError(f"no record matching {match}")


def test_suite_real_reports_pass(tiny_suite):
    assert _check_suite(tiny_suite) == []


def test_suite_rejects_a_nonzero_endpoint_gap(tiny_suite):
    _, _, texts, _ = _suite_texts(tiny_suite)
    bad = _edit_record(texts["json"], {"check_name": "conditional_form", "lambda": 0.0},
                       gap=1e-12)
    assert any("endpoint" in f for f in _check_suite(tiny_suite, json_text=bad, repeat=bad))


def test_suite_rejects_a_wrong_matrix_gap(tiny_suite):
    _, _, texts, _ = _suite_texts(tiny_suite)
    record = next(r for r in json.loads(texts["json"])["records"]
                  if r["check_name"] == "matrix_bergstrom")
    bad = _edit_record(texts["json"], {"instance_id": record["instance_id"],
                                       "check_name": "matrix_bergstrom"},
                       gap=record["gap"] * (1 + 1e-6) + 1e-6)
    assert any("matrix_bergstrom" in f
               for f in _check_suite(tiny_suite, json_text=bad, repeat=bad))


def test_suite_rejects_a_significantly_violated_record(tiny_suite):
    _, _, texts, _ = _suite_texts(tiny_suite)
    record = next(r for r in json.loads(texts["json"])["records"] if r["stderr"] > 0)
    bad = _edit_record(texts["json"], {"check_name": record["check_name"],
                                       "instance_id": record["instance_id"],
                                       "lambda": record["lambda"]},
                       gap=-SHIFT * record["stderr"])
    assert _check_suite(tiny_suite, json_text=bad, repeat=bad)


def test_suite_rejects_disagreeing_json_and_csv(tiny_suite):
    _, _, texts, _ = _suite_texts(tiny_suite)
    lines = texts["csv"].splitlines(keepends=True)
    lines[1] = lines[1].replace(",holds,", ",violated,", 1).replace(
        ",equality_consistent,", ",violated,", 1)
    assert any("CSV" in f for f in _check_suite(tiny_suite, csv_text="".join(lines)))


def test_suite_rejects_a_second_run_that_differs(tiny_suite):
    _, _, texts, _ = _suite_texts(tiny_suite)
    record = json.loads(texts["json"])["records"][0]
    bad = _edit_record(texts["json"], {"check_name": record["check_name"],
                                       "instance_id": record["instance_id"]},
                       lhs=record["lhs"] + 1.0)
    assert any("byte-identical" in f for f in _check_suite(tiny_suite, repeat=bad))


def test_suite_rejects_an_exit_code_the_records_do_not_imply(tiny_suite):
    assert any("exit codes" in f for f in _check_suite(tiny_suite, codes=[1, 0, 0]))


@pytest.mark.parametrize("name,factor", [
    ("entropic_bergstrom", V.TWO_PI_E), ("projective_fisher", 1.0),
    ("matrix_bergstrom", 1.0), ("matrix_kyfan", None),
])
def test_suite_zero_stderr_gap_must_match_slogdet(name, factor):
    rng = np.random.default_rng(1)
    a, b = (np.cov(rng.standard_normal((3, 20))) for _ in range(2))
    gap = V.slogdet_gap(a, b, 2)[0] if factor is None else factor * V.slogdet_gap(a, b)[0]

    def check(value):
        record = {"check_name": name, "instance_id": "spd_pair-d3-0", "dim": 3,
                  "lambda": None, "lhs": value + 1.0, "rhs": 1.0, "gap": value,
                  "stderr": 0.0, "verdict": "holds", "seed": 0, "wall_ms": 0.1}
        text = json.dumps({"version": 1, "seed": 0, "records": [record], "summary": {}})
        csv_text = ("check_name,instance_id,dim,lambda,lhs,rhs,gap,stderr,verdict,seed,wall_ms\n"
                    f"{name},spd_pair-d3-0,3,,{value + 1.0!r},1.0,{value!r},0.0,holds,0,0.1\n")
        return V.suite_report_checks(0, text, csv_text, [0], lambda *k: (a, b))

    assert check(gap) == []
    assert check(gap * (1 + 1e-6))
