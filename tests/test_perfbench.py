"""Smoke test of the traced benchmark runs.

A traced run installs the span tracer, runs the command list with every
public function wrapped, probes a finite-difference Christoffel copy of the
product chart and builds the per-layer metrics.  Those steps sit outside the
runner's per-command exception guard, so a fault in any of them ends the run
with a nonzero exit and no result line.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["certify", "algebra", "flow"])
def test_traced_run_exits_zero_and_correct(workload):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.01", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
