"""The benchmark's correctness gate on its smallest budget: one unit of each
perfbench workload must run and report `"correct": true`. The gate checks the
names the runner calls and the recorded float64 `convergence.csv` bytes."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["search-dup", "search-sparse"])
def test_workload_is_correct(workload):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "0", "--seconds", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True
