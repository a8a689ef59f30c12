"""Import footprint and public names: the closed forms run on numpy alone,
and the package exports only names it defines.

Each test runs in a fresh interpreter, since this one has loaded scipy
through the other test modules.  scipy's BLAS wrapper module
``scipy.linalg._fblas`` loads alone, without the ``scipy.linalg`` package,
when the first record that samples is opened, off that record's clock;
``scipy.spatial`` and ``scipy.special`` load only in ``knn_entropy``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import scipy

import epicheck
from epicheck import checks, estimators, matrices

PRELUDE = """
import json, sys
import numpy as np
import epicheck as ec

def loaded():
    return sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy."))

cfg = ec.CheckConfig(m=20_000, seed=1)
rng = np.random.default_rng(7)
"""

CLOSED_FORMS = """
a, b = ec.random_spd(3, rng), ec.random_spd(3, rng)
ec.bergstrom_gap_all(a, b)
ec.kyfan_gap_all(a, b)
records = [
    ec.check_matrix_bergstrom(a, b, 0, cfg),
    ec.check_matrix_kyfan(a, b, 1, cfg),
    ec.check_equality_case_bonnesen(3, cfg, rng),
]
x = ec.GaussianMixture.gaussian(rng.standard_normal(3), a)
y = ec.GaussianMixture.gaussian(rng.standard_normal(3), b)
records += [
    ec.check_entropic_bergstrom(x, y, cfg),
    ec.check_isoperimetric_sharp(x, cfg),
    ec.check_de_bruijn(x, cfg=cfg),
    ec.check_epi(x, y, cfg),
    ec.check_blachman_stam(x, y, cfg),
    ec.check_tm_limit(x, cfg),
    ec.check_entropic_bonnesen(*ec.shared_prefix_pair(3, rng), 0.5, cfg),
]
report, code = ec.run_suite(ec.config_from_dict({"seed": 1, "checks": [
    "matrix_bergstrom", "matrix_kyfan", "equality_case_bonnesen",
    "entropic_bonnesen", "conditional_epi",
]}))
assert code == 0, report["summary"]
stderrs = [r.stderr for r in records] + [r["stderr"] for r in report["records"]]
assert not any(stderrs), stderrs
print(json.dumps(loaded()))
"""


# retired names and the module each lived in: ``entropy`` and ``fisher`` on
# the split law replace the forced Monte-Carlo wrappers, and ``fisher`` of the
# squeezed law over M**2 replaces the squeeze sequence
RETIRED = {"mc_entropy": estimators, "mc_fisher": estimators, "tm_sequence": checks,
           "log_det": matrices, "delete_row_col": matrices, "leading_principal": matrices,
           "ConcavityScan": checks, "lambda_concavity_scan": checks,
           "bergstrom_gap": matrices, "kyfan_gap": matrices}


def _fresh(code: str):
    """The JSON a fresh interpreter prints as its last line of output after
    ``code``: the scipy modules it holds (``loaded()``), or other values."""
    src = str(Path(epicheck.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-W", "error", "-c", PRELUDE + code], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.splitlines()[-1])


class TestScipyFootprint:
    def test_closed_form_checks_load_no_scipy(self):
        assert _fresh(CLOSED_FORMS) == []

    def test_monte_carlo_draw_loads_blas_but_not_spatial(self):
        # the BLAS wrapper module is loaded by path and does not stay in
        # sys.modules, so no scipy.linalg module is left; nor scipy.special:
        # the look boundaries use the standard library
        loaded = _fresh(
            "a, b = ec.random_spd(3, rng), ec.random_spd(3, rng)\n"
            "x = ec.GaussianMixture([0.4, 0.6], [(np.zeros(3), a), (np.ones(3), b)])\n"
            "rep = ec.check_epi(x, ec.GaussianMixture.gaussian(np.zeros(3), np.eye(3)), cfg)\n"
            "assert rep.stderr > 0.0\n"
            "print(json.dumps(loaded()))\n"
        )
        assert "scipy" in loaded
        assert not any(name.startswith(("scipy.linalg", "scipy.spatial", "scipy.special")) for name in loaded)

    @pytest.mark.parametrize("bind_first", [True, False])
    def test_bind_is_scipys_dtrsm(self, bind_first):
        # the same function object in either import order, so every solve and
        # every record keeps its bits; the scipy.linalg package still works
        # after the bind and holds the wrapper module as its attribute
        bind = "dtrsm = _trsm()\n"
        package = "import scipy.linalg, scipy.linalg.blas\n"
        assert _fresh(
            "from epicheck.mixtures import _trsm\n"
            + (bind + package if bind_first else package + bind)
            + "assert dtrsm is scipy.linalg.blas.dtrsm is scipy.linalg._fblas.dtrsm is _trsm()\n"
            "tri = np.array([[2.0, 0.0], [1.0, 4.0]])\n"
            "print(json.dumps(scipy.linalg.solve_triangular(tri, [2.0, 5.0], lower=True).tolist()))\n"
        ) == [1.0, 1.0]

    def test_bind_names_the_directory_it_searched(self, tmp_path):
        # a scipy without the wrapper module where it is looked for fails with
        # an ImportError that says where it looked and which scipy it found
        error = _fresh(
            "import scipy\n"
            f"scipy.__path__ = [{str(tmp_path)!r}]\n"
            "from epicheck.mixtures import _trsm\n"
            "try:\n"
            "    _trsm()\n"
            "except ImportError as exc:\n"
            "    print(json.dumps(str(exc)))\n"
        )
        assert str(tmp_path / "linalg") in error and f"scipy {scipy.__version__}" in error

    def test_first_sampled_record_does_not_carry_scipys_import(self):
        # the split law reaches the last look, so each record costs its draws
        # (tens of ms).  The wrapper module loads in about 12 ms, inside the
        # spread of one record, so the first bind is planted to take 0.3 s: on
        # the first record's clock it would make that record several times the
        # second.  A busy machine can slow one record alone, so a fresh
        # interpreter is tried up to three times
        code = (
            "import time\n"
            "from epicheck import checks\n"
            "bind = checks._trsm\n"
            "def slow_first_bind():\n"
            "    checks._trsm = bind\n"
            "    time.sleep(0.3)\n"
            "    return bind()\n"
            "checks._trsm = slow_first_bind\n"
            "g = ec.GaussianMixture.gaussian(np.zeros(3), ec.random_spd(3, rng))\n"
            "x = ec.GaussianMixture([0.5, 0.5], [g.components[0]] * 2)\n"
            "wide = ec.CheckConfig(m=100_000, seed=1)\n"
            "reps = [ec.check_epi(x, x, wide) for _ in range(2)]\n"
            "assert reps[0].verdict == reps[1].verdict == ec.VERDICT_EQUALITY, reps\n"
            "print(json.dumps([rep.wall_ms for rep in reps]))\n"
        )
        times = []
        for _ in range(3):
            first, second = _fresh(code)
            times.append((first, second))
            if first <= 3.0 * second:
                break
        else:
            pytest.fail(f"first record's wall_ms above 3 times the second's: {times}")

    def test_knn_entropy_in_a_fresh_process(self):
        loaded = _fresh(
            "pts = rng.standard_normal((2000, 2))\n"
            "est = ec.knn_entropy(pts)\n"
            "assert abs(est.value - np.log(2 * np.pi * np.e)) < 5 * est.std_error + 0.05, est\n"
            "print(json.dumps(loaded()))\n"
        )
        assert "scipy.spatial" in loaded and "scipy.special" in loaded


class TestPublicNames:
    def test_every_export_resolves(self):
        assert [name for name in epicheck.__all__ if not hasattr(epicheck, name)] == []

    @pytest.mark.parametrize("name", sorted(RETIRED))
    def test_retired_name_is_gone(self, name):
        assert name not in epicheck.__all__
        assert not hasattr(epicheck, name) and not hasattr(RETIRED[name], name)
