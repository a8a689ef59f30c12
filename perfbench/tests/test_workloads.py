"""Tiny-size runs of every workload, and of the benchmark command."""

import json
import shutil
import subprocess
import sys

import pytest

import run
import spans
import workloads
from conftest import BENCH, ROOT, TINY


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_passes_its_output_checks(tiny_runs, name):
    workload, outputs = tiny_runs[name]
    assert workload.verify(outputs) == []


def test_tiny_workload_rounds_repeat_exactly(ec):
    workload = TINY["closed_form"](ec)
    first = workload.fingerprints(workload.run_round([])[2])
    assert workload.fingerprints(workload.run_round([])[2]) == first


def test_closed_form_counts_only_the_big_bonnesen_ops_as_failed(ec):
    workload = TINY["closed_form"](ec)
    durations = []
    attempted, failed, outputs = workload.run_round(durations)
    faulty = [op for op in workload.ops if op.expected_fault]
    assert {op.kind for op in faulty} == {"big_entropic_bonnesen", "big_equality_case"}
    assert attempted == len(workload.ops)
    assert failed == len(faulty) == 4
    assert len(durations) == attempted - failed


def test_tiny_suite_passes_its_output_checks(tiny_suite):
    suite, codes, attempted, failed, durations = tiny_suite
    assert failed == 0
    # one op per registry runner call: 18 checks on dims 2 and 3, three CLI runs
    assert attempted == len(durations) == 3 * 36
    assert suite.verify(codes) == []


def test_suite_seed_lists_are_fixed_per_workload_seed(ec):
    assert workloads.suite_seeds(ec, 5, 4) == workloads.suite_seeds(ec, 5, 4)
    assert workloads.suite_seeds(ec, 5, 4) != workloads.suite_seeds(ec, 6, 4)


class _FakeWorkload:
    """Half of MIN_OPS per round, so a phase always runs two rounds."""

    def __init__(self, drift: bool) -> None:
        self.drift = drift
        self.rounds = 0

    def run_round(self, durations, recorder=None):
        self.rounds += 1
        durations.extend([1e-3] * (run.MIN_OPS // 2))
        return run.MIN_OPS // 2, 0, [self.rounds if self.drift else 0]

    def fingerprints(self, outputs):
        return outputs


@pytest.mark.parametrize("drift", [False, True])
def test_timed_phase_flags_outputs_that_change_between_rounds(drift):
    phase = run.timed_phase(_FakeWorkload(drift), 0.0)
    assert phase["rounds"] == 2
    assert phase["same"] is not drift


def _bench(args, cwd):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=170,
    )


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_command_reports_every_end_to_end_metric():
    result = _result(_bench(
        ["--workload", "closed_form", "--seed", "3", "--seconds", "0.2", "--trace", "0"], ROOT))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] * 211 == result["attempted"]  # 4 of 844 ops per round
    declared = {m["name"]: m["unit"] for m in _declared()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_command_reports_every_per_layer_metric():
    result = _result(_bench(
        ["--workload", "closed_form", "--seed", "3", "--seconds", "0.2", "--trace", "1"], ROOT))
    assert result["correct"] is True
    declared = {m["name"]: m["unit"] for m in _declared()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert declared == {name: unit for name, unit, _ in spans.LAYER_METRICS}
    assert result["metrics"]["checks.check_matrix_kyfan.calls"]["value"] == 70
    assert result["metrics"]["seeding.unused_generators"]["value"] > 0


def test_command_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench(["--workload", "suite", "--seed", "1", "--seconds", "1", "--trace", "0"],
                  tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracing_leaves_outputs_unchanged_and_restores_the_program(ec):
    workload = TINY["closed_form"](ec)
    untraced = workload.fingerprints(workload.run_round([])[2])
    original = ec.checks.check_matrix_bergstrom
    recorder = spans.Recorder(ec)
    recorder.install()
    try:
        traced = workload.fingerprints(workload.run_round([], recorder)[2])
    finally:
        recorder.uninstall()
    assert traced == untraced
    assert ec.checks.check_matrix_bergstrom is original
    calls, _ = recorder.totals()
    assert calls["checks.check_matrix_bergstrom"] == 7  # one per dim 2..8


def test_self_time_subtracts_child_spans(ec):
    recorder = spans.Recorder(ec)
    parent, child = recorder._name_id("parent"), recorder._name_id("child")
    recorder.spans += [(parent, 0.0, 10.0, -1), (child, 1.0, 4.0, 0), (child, 5.0, 6.0, 0)]
    calls, self_s = recorder.totals()
    assert calls == {"parent": 1, "child": 2}
    assert self_s["parent"] == 6.0 and self_s["child"] == 4.0
