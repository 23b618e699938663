"""Tests of the benchmark itself (about two minutes).

Run from the repository root: ``python3 -m pytest perfbench``.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Units of measured times and rates; every other per-layer metric is a
# count, or a ratio or accuracy computed from deterministic outputs.
TIMED_UNITS = {"s", "us", "1/s"}


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py")] + list(args),
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.workloads.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    args = ("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "1")
    first, second = result_of(bench(*args)), result_of(bench(*args))
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {name for name, _ in run.PER_LAYER}
    exact = {
        name for name, unit in run.PER_LAYER
        if unit not in TIMED_UNITS and name != "trace.overhead_ratio"
    }
    for name in sorted(exact):
        assert first["metrics"][name] == second["metrics"][name], name


def test_counts_match_the_seed_code():
    metrics = result_of(bench("--workload", "library-fd", "--seed", "5",
                              "--seconds", "1", "--trace", "1"))["metrics"]
    assert metrics["curves.fd_callbacks_per_point.coordinate"]["value"] == 29
    assert metrics["curves.fd_callbacks_per_point.frame"]["value"] == 19


def test_untraced_run_reports_every_end_to_end_metric():
    result = result_of(bench("--workload", "csv-roundtrip", "--seed", "5",
                             "--seconds", "2", "--trace", "0"))
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {name for name, _ in run.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = bench("--workload", "verify", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tail_keeps_ten_samples_beyond_it():
    assert run.tail(list(range(100))) == (89, 90.0, 10)
    assert run.tail(list(range(8))) == (5, 75.0, 2)
