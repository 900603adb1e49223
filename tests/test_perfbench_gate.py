"""The benchmark's correctness gate on its smallest budget: one unit of each
perfbench workload must run and report `"correct": true`, untraced and traced.
The gate checks the names the runner calls and the recorded float64
`convergence.csv` bytes; the traced run also checks the call counts of each
layer against the counts the workload implies."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

CASES = [(workload, trace) for trace in ("0", "1")
         for workload in ("search-dup", "search-sparse")]


@pytest.mark.parametrize("workload, trace", CASES,
                         ids=[w if t == "0" else f"{w}-traced" for w, t in CASES])
def test_workload_is_correct(workload, trace):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "0", "--seconds", "0", "--trace", trace],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True
