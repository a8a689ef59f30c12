"""Make the benchmark's modules and the epicheck sources importable.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")
for path in (ROOT / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import pytest  # noqa: E402

import workloads  # noqa: E402

TINY = {
    "entropy_mc": lambda ec: workloads.EntropyMC(ec, 11, m=20_000),
    "fisher_mc": lambda ec: workloads.FisherMC(ec, 11, m=20_000, outer=100, inner=200),
    "closed_form": lambda ec: workloads.ClosedForm(ec, 11, per_dim=1),
}


@pytest.fixture(scope="module")
def ec():
    import epicheck
    import epicheck.cli  # noqa: F401

    return epicheck


@pytest.fixture(scope="module")
def tiny_runs(ec):
    """One round of each op workload at tiny size: (workload, outputs)."""
    runs = {}
    for name, make in TINY.items():
        workload = make(ec)
        runs[name] = (workload, workload.run_round([])[2])
    return runs


@pytest.fixture(scope="module")
def tiny_suite(ec, tmp_path_factory):
    """One round of the suite workload over a single suite seed."""
    suite = workloads.Suite(ec, 11, tmp_path_factory.mktemp("suite"), n_seeds=1)
    try:
        durations = []
        attempted, failed, codes = suite.run_round(durations)
        yield suite, codes, attempted, failed, durations
    finally:
        suite.close()
