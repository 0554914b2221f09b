"""Checks of the benchmark itself; slow, and not part of the package tests.

    python -m pytest bench/test_bench.py

Each case runs one measuring process per (workload, seed, trace, attempt).
"""

import functools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["corpus", "lemma24", "atlas", "witness"]
# the exact count each workload exists to exercise
NODE_COUNT = {"corpus": "solver.nodes", "lemma24": "solver.nodes",
              "atlas": "images.nodes", "witness": "named.candidates"}


@functools.cache
def measure(workload: str, seed: int, trace: int, attempt: int) -> dict:
    env = dict(os.environ, PYTHONPATH="src")
    env.pop("HCOLOR_THREADS", None)
    proc = subprocess.run(
        [sys.executable, "bench/workloads.py", "measure", workload, str(seed), "0", str(trace)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_answers_match_reference_and_ignore_seed(workload):
    a = measure(workload, 0, 1, 0)
    b = measure(workload, 1, 0, 0)
    for res in (a, b):
        assert res["errors"] == []
        assert res["failed"] == 0 and res["attempted"] > 0
    assert a["digests"] == b["digests"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_at_one_seed(workload):
    a = measure(workload, 0, 1, 0)
    b = measure(workload, 0, 1, 1)
    assert a["counts"][NODE_COUNT[workload]] > 0
    assert a["counts"] == b["counts"]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "corpus"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
