"""epicheck benchmark: one workload, timed, checked, and reported as JSON.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (the program is imported from
``src/``).  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  See
``perfbench/README.md`` for the workloads, metrics and reference figures.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("suite", "entropy_mc", "fisher_mc", "closed_form")
# the workload runs on one thread: numpy's BLAS must not start its own
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 2  # fresh processes that only set up; setup_s is the median of 3
MIN_OPS = 100  # so that at least ten completed ops lie beyond op_ms_p90
PROBE_TIMEOUT_S = 60


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup(workload: str, seed: int):
    """Import epicheck and build the workload's inputs, up to the first op."""
    start = time.perf_counter()
    import epicheck
    import workloads

    built = workloads.build(workload, epicheck, seed, OUT / f"{workload}-{seed}" / "reports")
    return epicheck, built, time.perf_counter() - start


def probe_setups(args) -> list[float]:
    """Set-up time of fresh processes, each importing and building anew."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
             "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def timed_phase(workload, seconds: float, recorder=None) -> dict:
    """Whole rounds until about ``seconds`` have passed and MIN_OPS completed.

    Stops when finishing another round would overshoot ``seconds`` by more
    than it undershoots now, so a run lasts ``seconds`` within half a round.
    """
    durations: list[float] = []
    attempted = failed = rounds = 0
    first = None
    same = True
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        n_attempted, n_failed, outputs = workload.run_round(durations, recorder)
        now = time.perf_counter()
        attempted += n_attempted
        failed += n_failed
        rounds += 1
        prints = workload.fingerprints(outputs)
        if first is None:
            first = prints
        elif prints != first:
            same = False
        if len(durations) >= MIN_OPS and now - start + 0.5 * (now - round_start) >= seconds:
            break
    return {
        "durations": durations, "attempted": attempted, "failed": failed, "rounds": rounds,
        "elapsed": time.perf_counter() - start, "outputs": outputs, "prints": first,
        "same": same,
    }


def end_to_end(phase: dict, setup_times: list[float]) -> dict:
    import numpy as np

    ms = np.asarray(phase["durations"]) * 1e3
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "ops_per_s": {"value": len(ms) / phase["elapsed"], "unit": "ops/s"},
        "op_ms_p50": {"value": float(np.percentile(ms, 50)), "unit": "ms"},
        "op_ms_p90": {"value": float(np.percentile(ms, 90)), "unit": "ms"},
        "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "epicheck" / "__init__.py").is_file():
        print(f"error: no epicheck sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    if args.probe_setup:
        print(repr(setup(args.workload, args.seed)[2]))
        return 0

    run_dir = OUT / f"{args.workload}-{args.seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    setup_times = [] if args.trace else probe_setups(args)
    ec, workload, setup_s = setup(args.workload, args.seed)
    setup_times.append(setup_s)

    phase = timed_phase(workload, args.seconds)
    fails = workload.verify(phase["outputs"])
    if not phase["same"]:
        fails.append("outputs differ between rounds of the same inputs")
    attempted, failed = phase["attempted"], phase["failed"]

    if args.trace:
        import spans

        recorder = spans.Recorder(ec)
        recorder.install()
        try:
            traced = timed_phase(workload, args.seconds, recorder)
        finally:
            recorder.uninstall()
        recorder.write(run_dir / "spans.txt")
        if traced["prints"] != phase["prints"] or not traced["same"]:
            fails.append("traced outputs differ from untraced outputs")
        attempted += traced["attempted"]
        failed += traced["failed"]
        overhead = (len(traced["durations"]) / traced["elapsed"]
                    - len(phase["durations"]) / phase["elapsed"])
        metrics = spans.layer_metrics(recorder, traced["rounds"], overhead)
        print(f"traced {traced['rounds']} round(s), {len(recorder.spans)} spans",
              file=sys.stderr)
    else:
        metrics = end_to_end(phase, setup_times)
    workload.close()

    print(f"{args.workload}: {phase['rounds']} round(s), {len(phase['durations'])} ops "
          f"in {phase['elapsed']:.2f} s", file=sys.stderr)
    for msg in fails:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    print(json.dumps({"correct": not fails, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
