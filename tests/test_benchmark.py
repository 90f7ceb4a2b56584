"""The checked-in benchmark harness runs on this checkout."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_critical_ladder_benchmark_runs_and_sees_the_solver():
    # One untimed pass of the critical-ladder workload with tracing on
    # (about 4.5 s).  The harness must exit 0 with every CSV verified, and
    # its spans, which wrap the module attribute solver.ground_eigenpair,
    # must see the window solves: a solve that goes around that attribute
    # would leave solver.blocks at 0.
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "critical-ladder",
         "--seed", "0", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert metrics["solver.blocks"] > 0
    assert metrics["solver.convergence_errors"] == 0
