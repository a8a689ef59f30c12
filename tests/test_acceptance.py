"""Acceptance suite: fifteen end-to-end criteria, one test each.

Every test prints a single "C## PASS/FAIL: ..." line (visible with -s, and
embedded in the assertion message on failure).  Statistical criteria use
pinned seeds; the bounds asserted are the ones a fresh 3-sigma draw passes
with high probability, verified once per seed choice.

Worked matrix pair used by several criteria:

    A = [[2,1],[1,2]], B = [[3,-1],[-1,2]]
    deleted-last gap 4 - 3/2 - 5/3 = 5/6, deleted-first gap 5 - 3/2 - 5/2 = 1
"""

import json
import math
import time

import numpy as np
import pytest

from epicheck import (
    CheckConfig,
    GaussianMixture,
    MarkovTriple,
    SpdMatrix,
    VERDICT_EQUALITY,
    VERDICT_HOLDS,
    VERDICT_INCONCLUSIVE,
    VERDICT_VIOLATED,
    bergstrom_gap_all,
    bonnesen_linear_gap,
    check_conditional_epi,
    check_conditional_form,
    check_de_bruijn,
    check_entropic_bergstrom,
    check_equality_case_bonnesen,
    check_isoperimetric_dominance,
    check_isoperimetric_sharp,
    check_projective_fisher,
    check_sphere_identity,
    check_tm_limit,
    compression_map,
    conditional_fisher_last,
    default_config,
    entropy,
    fisher,
    kyfan_gap_all,
    make_bonnesen_equality_pair,
    knn_entropy,
    projective_fisher,
    proportional_markov_triple,
    random_mixture,
    random_spd,
    rng_from_tokens,
    run_suite,
)

TWO_PI_E = 17.079468445347132
H_STD_3D = 4.256815599614018

COV_A = np.array([[2.0, 1.0], [1.0, 2.0]])
COV_B = np.array([[3.0, -1.0], [-1.0, 2.0]])


def conclude(cid: str, ok: bool, label: str) -> None:
    line = f"{cid} {'PASS' if ok else 'FAIL'}: {label}"
    print(line)
    assert ok, line


def gauss(cov):
    cov = np.asarray(cov, dtype=float)
    return GaussianMixture.gaussian(np.zeros(cov.shape[0]), cov)


def split(gm: GaussianMixture) -> GaussianMixture:
    """A pure Gaussian as two equal halves, which take the Monte-Carlo route
    while the answer is known; a mixture as it is."""
    return GaussianMixture([0.5, 0.5], gm.components * 2) if gm.is_gaussian else gm


@pytest.fixture(scope="module")
def spd_corpus():
    """1000 random SPD pairs per dimension 2..8, shared by C1-C2."""
    corpus = {}
    for n in range(2, 9):
        rng = rng_from_tokens(1, "accept-spd", n)
        corpus[n] = [(random_spd(n, rng), random_spd(n, rng)) for _ in range(1000)]
    return corpus


def test_c01_matrix_bergstrom_bulk(spd_corpus):
    t0 = time.perf_counter()
    worst = 0.0
    for n, pairs in spd_corpus.items():
        for a, b in pairs:
            worst = min(worst, float(bergstrom_gap_all(a, b).min()))
    elapsed = time.perf_counter() - t0

    worst_diag = 0.0
    for n in range(2, 9):
        rng = rng_from_tokens(1, "accept-diagonal", n)
        for _ in range(50):
            a = SpdMatrix(np.diag(rng.uniform(0.5, 5.0, size=n)))
            b = SpdMatrix(np.diag(rng.uniform(0.5, 5.0, size=n)))
            worst_diag = max(worst_diag, float(np.abs(bergstrom_gap_all(a, b)).max()))

    ok = worst >= -1e-9 and worst_diag <= 1e-12 and elapsed < 10.0
    conclude(
        "C01", ok,
        f"deleted-row gaps >= -1e-9 on 7000 pairs (worst {worst:.2e}), "
        f"diagonal gaps <= 1e-12 (worst {worst_diag:.2e}), {elapsed:.1f}s",
    )


def test_c02_matrix_kyfan_bulk(spd_corpus):
    worst = 0.0
    worst_match = 0.0
    for n, pairs in spd_corpus.items():
        for a, b in pairs:
            gaps = kyfan_gap_all(a, b)
            worst = min(worst, float(gaps.min()))
            anchor = bergstrom_gap_all(a, b)[n - 1]
            scale = max(1.0, abs(anchor))
            worst_match = max(worst_match, abs(gaps[0] - anchor) / scale)
    ok = worst >= -1e-9 and worst_match <= 1e-12
    conclude(
        "C02", ok,
        f"kth-root gaps >= -1e-9 on 7000 pairs (worst {worst:.2e}), "
        f"k=1 matches deleted-last to 1e-12 (worst {worst_match:.2e})",
    )


def test_c03_gaussian_reduction():
    cfg = CheckConfig()
    worst = 0.0
    for i in range(100):
        n = 2 + i % 4
        rng = rng_from_tokens(2, "accept-reduction", i)
        a, b = random_spd(n, rng), random_spd(n, rng)
        rep = check_entropic_bergstrom(gauss(a.entries), gauss(b.entries), cfg)
        matrix = bergstrom_gap_all(a, b)[n - 1]
        worst = max(worst, abs(rep.gap - TWO_PI_E * matrix) / max(1e-30, TWO_PI_E * abs(matrix)))
    a, b = SpdMatrix(COV_A), SpdMatrix(COV_B)
    worked = bergstrom_gap_all(a, b)
    worked_ok = abs(worked[1] - 5.0 / 6.0) <= 1e-12 and abs(worked[0] - 1.0) <= 1e-12
    ok = worst <= 1e-10 and worked_ok
    conclude(
        "C03", ok,
        f"entropic gap = 2*pi*e * matrix gap on 100 Gaussian pairs "
        f"(worst rel {worst:.2e}); worked pair gaps 5/6 and 1",
    )


def test_c04_estimator_calibration():
    x = split(gauss(np.eye(3)))
    h = entropy(x, 200_000, rng_from_tokens(4, "accept-cal", "h"))
    fi = fisher(x, 200_000, rng_from_tokens(4, "accept-cal", "fi"))
    h_ok = abs(h.value - H_STD_3D) <= 3.0 * h.std_error and h.std_error <= 0.01
    fi_ok = abs(fi.value - 3.0) <= 3.0 * fi.std_error
    conclude(
        "C04", h_ok and fi_ok,
        f"plug-in entropy {h.value:.6f} (se {h.std_error:.4f}) vs {H_STD_3D:.6f}; "
        f"plug-in Fisher {fi.value:.4f} (se {fi.std_error:.4f}) vs 3",
    )


def test_c05_mixture_convex_split():
    cfg = CheckConfig(m=100_000, seed=5)
    counts = {VERDICT_HOLDS: 0, VERDICT_EQUALITY: 0, VERDICT_VIOLATED: 0,
              VERDICT_INCONCLUSIVE: 0}
    for i in range(200):
        dim = (2, 3, 4)[i % 3]
        x = random_mixture(dim, rng_from_tokens(5, "accept-b2", i, "x"))
        y = random_mixture(dim, rng_from_tokens(5, "accept-b2", i, "y"))
        rep = check_conditional_form(x, y, 0.5, cfg)
        counts[rep.verdict] += 1
    ok = counts[VERDICT_VIOLATED] == 0 and counts[VERDICT_INCONCLUSIVE] <= 10
    conclude(
        "C05", ok,
        f"200 mixture pairs at m=1e5: verdicts {counts} "
        f"(0 violated required, <= 5% inconclusive)",
    )


def test_c06_bonnesen_equality_family():
    cfg = CheckConfig()
    all_equal = True
    for i in range(50):
        n = 2 + i % 5
        rng = rng_from_tokens(6, "accept-equality", i)
        pair = make_bonnesen_equality_pair(n, rng)
        rep = check_equality_case_bonnesen(n, cfg, pair=pair)
        all_equal = all_equal and rep.verdict == VERDICT_EQUALITY

    # bump one off-diagonal entry of the last column: still equal prefix
    # minors, but outside the equality family, so the midpoint gap is
    # strictly positive
    min_gap = math.inf
    for i in range(50):
        n = 2 + i % 5
        rng = rng_from_tokens(6, "accept-perturbed", i)
        s1, s2 = make_bonnesen_equality_pair(n, rng)
        bumped = s2.entries.copy()
        # the symmetric bump has spectral norm delta, so half the smallest
        # eigenvalue keeps the matrix positive definite
        delta = 0.5 * float(np.linalg.eigvalsh(bumped)[0])
        bumped[0, n - 1] += delta
        bumped[n - 1, 0] += delta
        gap = bonnesen_linear_gap(s1, SpdMatrix(bumped), 0.5, n - 1)
        min_gap = min(min_gap, gap / max(1.0, math.exp(s1.log_det)))
    ok = all_equal and min_gap > 1e-12
    conclude(
        "C06", ok,
        f"50 equality-family pairs all equality_consistent on the 21-point "
        f"grid; 50 perturbed pairs strictly positive at midpoint "
        f"(min rel gap {min_gap:.2e})",
    )


def test_c07_isoperimetric():
    cfg = CheckConfig()
    sharp_ok = True
    for s2 in (0.25, 1.0, 4.0):
        rep = check_isoperimetric_sharp(gauss(np.diag([1.0, 1.0, s2])), cfg)
        rel = abs(rep.gap) / max(abs(rep.lhs), abs(rep.rhs))
        sharp_ok = sharp_ok and rel <= 1e-10 and rep.verdict == VERDICT_EQUALITY

    violations = 0
    for i in range(500):
        n = 2 + i % 4
        rng = rng_from_tokens(7, "accept-dominance", i)
        rep = check_isoperimetric_dominance(gauss(random_spd(n, rng).entries), cfg)
        violations += rep.verdict == VERDICT_VIOLATED
    ok = sharp_ok and violations == 0
    conclude(
        "C07", ok,
        f"axis-scaled Gaussians tight to 1e-10 for s2 in (1/4, 1, 4); "
        f"{violations} dominance violations in 500 instances",
    )


def test_c08_de_bruijn():
    cfg = CheckConfig()
    worst = 0.0
    gauss_ok = True
    for i in range(20):
        n = 1 + i % 3
        rng = rng_from_tokens(8, "accept-heat", i)
        # eigenvalue floor of 1: the central-difference error grows like
        # dt^2 * tr((cov + t I)^-3) and must stay under the 1e-6 budget
        cov = (
            random_spd(n, rng).entries + np.eye(n)
            if n > 1
            else np.array([[float(rng.uniform(1.0, 3.0))]])
        )
        rep = check_de_bruijn(gauss(cov), t=0.1, dt=1e-3, cfg=cfg)
        worst = max(worst, abs(rep.lhs - rep.rhs))
        gauss_ok = gauss_ok and rep.verdict == VERDICT_EQUALITY

    mix_ok = True
    mix_cfg = CheckConfig(m=1_000_000, seed=8)
    for i in range(3):
        rng = rng_from_tokens(8, "accept-heat-mix", i)
        x = GaussianMixture(
            [0.5, 0.5],
            [
                (rng.normal(0.0, 1.0, size=2), random_spd(2, rng).entries),
                (rng.normal(0.0, 1.0, size=2), random_spd(2, rng).entries),
            ],
        )
        rep = check_de_bruijn(x, t=0.1, dt=1e-3, cfg=mix_cfg)
        mix_ok = mix_ok and rep.verdict == VERDICT_EQUALITY
    ok = worst <= 1e-6 and gauss_ok and mix_ok
    conclude(
        "C08", ok,
        f"Gaussian heat derivative matches to 1e-6 (worst {worst:.1e}); "
        f"3 two-component mixtures equality_consistent at m=1e6",
    )


def test_c09_projective_fisher():
    cfg = CheckConfig(m=20_000, seed=9)
    violations = 0
    for i in range(200):
        dim = (2, 3)[i % 2]
        x = random_mixture(dim, rng_from_tokens(9, "accept-proj", i, "x"))
        y = random_mixture(dim, rng_from_tokens(9, "accept-proj", i, "y"))
        u = np.zeros(dim)
        u[-1] = 1.0
        rep = check_projective_fisher(x, y, u, cfg)
        violations += rep.verdict == VERDICT_VIOLATED

    worked = check_projective_fisher(gauss(COV_A), gauss(COV_B), [0.0, 1.0], CheckConfig())
    worked_ok = abs(worked.gap - 5.0 / 6.0) <= 1e-12
    ok = violations == 0 and worked_ok
    conclude(
        "C09", ok,
        f"{violations} violations in 200 mixture pairs; worked pair Schur "
        f"gap {worked.gap:.12f} = 5/6",
    )


def test_c10_tm_limit():
    m_values = (2, 4, 8, 16, 32, 64)
    values = [fisher(gauss(np.eye(3)).linear_map(compression_map(3, mv))).value / mv**2
              for mv in m_values]
    worst = max(
        abs((v - 1.0) - 2.0 / mv**2) for v, mv in zip(values, m_values)
    )

    # the exact squeeze identity at M = 64 on a mixture, from independent draws
    cfg = CheckConfig(m=200_000, seed=10)
    x = GaussianMixture(
        [0.4, 0.6],
        [
            (np.zeros(2), np.eye(2)),
            (np.array([2.0, 0.0]), np.array([[2.0, 0.5], [0.5, 1.0]])),
        ],
    )
    rep = check_tm_limit(x, cfg=cfg)
    ok = worst <= 1e-9 and rep.verdict == VERDICT_EQUALITY
    conclude(
        "C10", ok,
        f"N(0,I3) squeeze values exactly 1 + 2/m^2 (worst dev {worst:.1e}); "
        f"mixture meets the exact squeeze identity ({rep.verdict})",
    )


def test_c11_sphere_identity():
    ok = True
    details = []
    for n in (2, 3, 5):
        rng = rng_from_tokens(11, "accept-sphere", n)
        v = rng.normal(0.0, 1.0, size=n)
        rep = check_sphere_identity(v, CheckConfig(m=100_000, seed=n))
        rel = abs(rep.gap) / rep.rhs
        ok = ok and abs(rep.gap) <= 3.0 * rep.stderr and rel <= 0.02
        details.append(f"n={n} rel {rel:.1e}")
    conclude("C11", ok, "sphere quadrature within 3 sigma and 2%: " + ", ".join(details))


def test_c12_conditional_epi():
    cfg = CheckConfig()
    violations = 0
    for i in range(100):
        dim = (2, 3)[i % 2]
        rng = rng_from_tokens(12, "accept-cond-epi", i)
        raw = rng.uniform(0.5, 1.5, size=3)
        probs = raw / raw.sum()
        xs = [gauss(random_spd(dim, rng).entries) for _ in range(3)]
        ys = [gauss(random_spd(dim, rng).entries) for _ in range(3)]
        rep = check_conditional_epi(MarkovTriple(probs, xs, ys), cfg)
        violations += rep.verdict == VERDICT_VIOLATED

    prop_ok = True
    for i in range(20):
        triple = proportional_markov_triple(2 + i % 3, rng_from_tokens(12, "accept-prop", i))
        rep = check_conditional_epi(triple, cfg)
        prop_ok = prop_ok and rep.verdict == VERDICT_EQUALITY
    ok = violations == 0 and prop_ok
    conclude(
        "C12", ok,
        f"{violations} violations in 100 three-label triples; 20 "
        f"proportional-covariance triples all equality_consistent",
    )


def test_c13_appendix_invariants():
    scaling_bad = 0
    for i in range(50):
        rng = rng_from_tokens(13, "accept-scaling", i)
        gm = split(random_mixture(2, rng))
        a = rng.normal(size=(2, 2))
        while abs(np.linalg.det(a)) < 0.3:
            a = rng.normal(size=(2, 2))
        h0 = entropy(gm, 30_000, rng_from_tokens(13, "accept-scaling", i, "h0"))
        h1 = entropy(gm.linear_map(a), 30_000, rng_from_tokens(13, "accept-scaling", i, "h1"))
        shift = math.log(abs(np.linalg.det(a)))
        tol = 3.0 * math.hypot(h0.std_error, h1.std_error)
        scaling_bad += abs((h1.value - h0.value) - shift) > tol

    proj_bad = 0
    for i in range(20):
        rng = rng_from_tokens(13, "accept-projeq", i)
        gm = random_mixture(2, rng)
        pf = projective_fisher(
            gm, [0.0, 1.0], 30_000, rng_from_tokens(13, "accept-projeq", i, "pf")
        )
        cf = conditional_fisher_last(
            gm, 800, 800, rng_from_tokens(13, "accept-projeq", i, "cf")
        )
        tol = 3.0 * math.hypot(pf.std_error, cf.std_error)
        proj_bad += abs(pf.value - cf.value) > tol
    ok = scaling_bad == 0 and proj_bad == 0
    conclude(
        "C13", ok,
        f"entropy shift under linear maps within 3 sigma on 50 draws "
        f"({scaling_bad} outside); projective vs conditional Fisher within "
        f"combined 3 sigma on 20 mixtures ({proj_bad} outside)",
    )


def test_c14_knn_cross_oracle():
    x = gauss(np.eye(2))
    rng = rng_from_tokens(14, "accept-knn")
    samples = x.sample(rng, 50_000)
    knn = knn_entropy(samples)
    mc = entropy(split(x), 50_000, rng_from_tokens(14, "accept-knn", "mc"))
    diff = abs(knn.value - mc.value)
    conclude(
        "C14", diff <= 0.05,
        f"knn vs plug-in entropy on N(0,I2): |{knn.value:.4f} - "
        f"{mc.value:.4f}| = {diff:.4f} <= 0.05 nats",
    )


def test_c15_reproducibility():
    def strip(report):
        records = [
            {k: v for k, v in r.items() if k != "wall_ms"} for r in report["records"]
        ]
        return json.dumps(
            {"seed": report["seed"], "records": records, "summary": report["summary"]},
            sort_keys=True,
        )

    first, code1 = run_suite(default_config(seed=42))
    second, code2 = run_suite(default_config(seed=42))
    identical = strip(first) == strip(second)
    ok = identical and code1 == 0 and code2 == 0
    conclude(
        "C15", ok,
        f"default suite at seed 42 twice: numeric fields byte-identical "
        f"({identical}), exit codes {code1}/{code2}, "
        f"{len(first['records'])} records",
    )
