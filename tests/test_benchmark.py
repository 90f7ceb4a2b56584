"""The checked-in benchmark harness runs on this checkout."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import lmgfisher
import lmgfisher.cli
from lmgfisher.spincore import EVEN, ModelParams

ROOT = Path(__file__).resolve().parents[1]


def load_perfbench(name):
    """perfbench/<name>.py, loaded from its path as the harness uses it."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_tracer_targets_resolve_and_count_rows():
    # The tracer wraps each (module, attribute) of TARGETS on the package
    # and reads a built block's rows from its result's `dimension`; this
    # checks that contract in process, without a harness run.
    spans = load_perfbench("spans")
    for module, attr in spans.TARGETS:
        assert callable(getattr(getattr(lmgfisher, module), attr)), (module, attr)
    assert lmgfisher.solver.build_sector_matrix(ModelParams(40, 0.5, 0.5), EVEN).dimension == 21
    tracer = spans.Tracer()
    tracer.install(lmgfisher)
    try:
        lmgfisher.solver.lmg_ground_state(ModelParams(40, 0.5, 0.5))
    finally:
        tracer.restore()
    assert lmgfisher.solver.build_sector_matrix is lmgfisher.spincore.build_sector_matrix
    metrics = spans.layer_metrics(tracer.spans)
    # Blocks of 21 and 20 rows, each solved whole: one build per block.
    assert (metrics["spincore.calls"], metrics["spincore.rows"]) == (2, 41)
    assert (metrics["solver.blocks"], metrics["solver.block_rows"]) == (2, 41)


@pytest.mark.parametrize("workload,counts", [
    ("readme-figures", (904, 52159, 52217)),
    ("critical-ladder", (14, 2224, 2238)),
    ("phase-grid-j2", (36, 7724, 7772)),
], ids=["readme-figures", "critical-ladder", "phase-grid-j2"])
def test_traced_work_of_the_seed_0_workloads(tmp_path, workload, counts):
    # The harness's traced pass in miniature: the seed-0 commands, run
    # serially through cli.main in this process.  The blocks solved, their
    # rows and the rows built are pinned, so a change that solves or
    # builds more (or less) shows here, not only in a benchmark run.
    spans, workloads = load_perfbench("spans"), load_perfbench("workloads")
    tracer = spans.Tracer()
    tracer.install(lmgfisher)
    try:
        for argv in workloads.WORKLOADS[workload](0):
            argv = workloads.serial(argv)
            out = argv.index("--out") + 1
            argv[out] = str(tmp_path / argv[out])
            assert lmgfisher.cli.main(argv) == 0
    finally:
        tracer.restore()
    metrics = spans.layer_metrics(tracer.spans)
    assert (metrics["solver.blocks"], metrics["solver.block_rows"], metrics["spincore.rows"]) == counts


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


def test_jobs_benchmark_matches_its_serial_run():
    # One untimed, untraced pass of phase-grid-j2 (about 3.5 s): its
    # --jobs 2 command runs in fresh processes, and the harness checks the
    # CSV row for row against a --jobs 1 run of the same grid.
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "phase-grid-j2",
         "--seed", "0", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
