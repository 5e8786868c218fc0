"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest bench/test_bench.py
(about two minutes on two cores; the repository's own suite does not collect
this file).
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402

EXACT_COUNTERS = ("eigen.block_solves", "eigen.solve_columns", "eigen.factor_fill",
                  "fem.dofs", "fem.nnz", "mesh.triangles")


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(ROOT)  # pass processes import the package from ./src


def _traced_pass(workload: str, seed: int) -> dict:
    env, _ = run.worker_env()
    result = run._spawn(workload, seed, True, env, time.monotonic() + run.DEADLINE_S)
    assert result["failures"] == []
    return result["layers"]


@pytest.mark.parametrize("seed, block_solves", [(1729, 48), (7, 49), (20261017, 51)])
def test_spectrum_counters_are_fixed_by_the_seed(seed, block_solves):
    layers = _traced_pass("spectrum", seed)
    assert layers["eigen.block_solves"] == block_solves
    assert layers["eigen.solve_columns"] == 11 * block_solves  # block of k + 3 columns
    assert layers["eigen.factor_fill"] == 4238116
    assert layers["fem.dofs"] == 197248


def test_counters_repeat_exactly():
    first, second = (_traced_pass("spectrum", 7) for _ in range(2))
    assert {k: first[k] for k in EXACT_COUNTERS} == {k: second[k] for k in EXACT_COUNTERS}


def test_assemble_has_no_eigen_work_and_full_coverage():
    layers = _traced_pass("assemble", 1)
    assert layers["eigen.factor_fill"] == layers["eigen.block_solves"] == 0
    assert layers["fem.dofs"] == 1839618 and layers["fem.nnz"] == 8312803
    assert layers["trace.coverage"] > 0.95


def test_result_line_matches_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert spec["command"][1] == "bench/run.py"
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "assemble", "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 4
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert result["metrics"]["pass_rate"]["value"] == 1.0


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "study", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
