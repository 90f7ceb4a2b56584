"""Benchmark of the lmgfisher CLI sweeps.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (perfbench/workloads.py): readme-figures, critical-ladder,
phase-grid-j2.  Every CLI command runs as a fresh process, as the README
runs `lmgfisher`, with PYTHONPATH pointing at this checkout's src/.  The
benchmark itself is one single-threaded process that waits on each child.

--trace 0 (end-to-end; tracing off):
  setup_s      median time for a fresh interpreter to finish
               `import lmgfisher.cli` (one start before each pass, at
               least 7, after a warm-up that writes the bytecode cache)
  wall_s       median wall time of one pass over the workload's commands
  cpu_s        median user+sys CPU seconds of a pass, pool workers included
  peak_rss_mb  median over passes of the largest ru_maxrss of a pass
Passes repeat until --seconds have elapsed.

--trace 1 (per layer): the same commands run in this process through
lmgfisher.cli.main, serially, once untraced and once with spans around the
calls into each module (perfbench/spans.py).  Per-layer figures are
medians over traced passes; the spans of the last one are written to
.bench_build/perfbench/.  Fresh-process passes run alongside for
cli.pool_overhead_s: their wall time minus, per command, the serial
in-process time divided by its --jobs (process start-up included).

Both modes check every CSV produced after the timed work
(perfbench/verify.py); `attempted` counts grid points checked and
`failed` the points that did not pass.  fail_ratio = failed / attempted
is printed with the other figures.  The last line of stdout is the
result object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import workloads

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
# What the `lmgfisher` console script runs.
ENTRY = "import sys; from lmgfisher.cli import main; sys.exit(main())"
IMPORT = ["-c", "import lmgfisher.cli"]
SETUP_STARTS = 7  # the least number of set-up starts in a run
# numpy's OpenBLAS would otherwise start a thread per core in every CLI
# process and pool worker.  The spinning threads add about half again the
# CPU time and make wall time swing with where the host places them (see
# perfbench/baseline.json), which no bound here could absorb.
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


@dataclass
class Proc:
    wall: float
    cpu: float
    maxrss_kb: int
    exit_code: int


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    # An installed package imports from cached bytecode; let the warm-up write it.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str], cwd: Path, stderr_path: Path | None = None) -> Proc:
    """Run one process to completion; its rusage includes its reaped children."""
    with open(stderr_path or os.devnull, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, proc.returncode)


def python(*args: str) -> list[str]:
    return [sys.executable, *args]


def start_times(args: list[str], cwd: Path, starts: int) -> list[float]:
    """Wall times of `starts` fresh interpreters running `args`."""
    walls = []
    for _ in range(starts):
        proc = spawn(python(*args), cwd)
        if proc.exit_code != 0:
            raise BenchError(f"{' '.join(args)} exited with {proc.exit_code}")
        walls.append(proc.wall)
    return walls


@dataclass
class Pass:
    """One pass over the workload's commands and where its CSVs went."""

    directory: Path
    commands: list[list[str]]
    exit_codes: list[int]
    wall: float
    cpu: float = 0.0
    maxrss_kb: int = 0
    command_walls: tuple[float, ...] = ()

    def outputs(self) -> list[tuple[workloads.Sweep, int, str | None]]:
        out = []
        for argv, code in zip(self.commands, self.exit_codes):
            sweep = workloads.parse_sweep(argv)
            path = self.directory / sweep.out
            out.append((sweep, code, path.read_text(encoding="utf-8") if path.exists() else None))
        return out


def process_pass(commands: list[list[str]], directory: Path) -> Pass:
    directory.mkdir(parents=True)
    start = time.perf_counter()
    procs = [spawn(python("-c", ENTRY, *argv), directory) for argv in commands]
    wall = time.perf_counter() - start
    return Pass(directory, commands, [p.exit_code for p in procs], wall,
                sum(p.cpu for p in procs), max(p.maxrss_kb for p in procs))


def inprocess_pass(cli, commands: list[list[str]], directory: Path) -> Pass:
    """Serial pass through cli.main in this process (cwd = directory)."""
    directory.mkdir(parents=True)
    serial = [workloads.serial(argv) for argv in commands]
    codes, walls = [], []
    here = os.getcwd()
    os.chdir(directory)
    try:
        for argv in serial:
            start = time.perf_counter()
            codes.append(cli.main(argv))
            walls.append(time.perf_counter() - start)
    finally:
        os.chdir(here)
    return Pass(directory, serial, codes, sum(walls), command_walls=tuple(walls))


def check(passes: list[Pass], refs, same_as: Pass | None = None) -> tuple[int, int]:
    """(attempted, failed) grid points over every CSV of `passes`.

    With `same_as`, each output must also match that pass's output row for
    row: the --jobs determinism check against a serial run of the same grid.
    """
    import verify

    serial_texts = [text for _, _, text in same_as.outputs()] if same_as else None
    attempted = failed = 0
    for p in passes:
        for k, (sweep, code, text) in enumerate(p.outputs()):
            attempted += len(sweep.grid())
            other = serial_texts[k] if serial_texts else None
            if serial_texts and other is None:
                failed += len(sweep.grid())
                continue
            failed += verify.check_output(sweep, code, text, refs, same_as=other)
    return attempted, failed


def new_references():
    import verify  # numpy and scipy load only once timing is over

    return verify.References()


def tail_percentile(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    for p in (99.9, 99.0, 90.0, 75.0, 50.0):
        if len(values) * (1.0 - p / 100.0) >= 10:
            cut = statistics.quantiles(values, n=1000, method="inclusive")[round(p * 10) - 1]
            return f"p{p:g}={cut:.6g}"
    return "no percentile has 10 samples beyond it"


def run_end_to_end(name, commands, seconds, tmp, units):
    # Set-up starts are spread over the run, one before each pass, so that
    # they see the same machine conditions as the passes.
    start_times(IMPORT, tmp, 1)  # warm-up: writes the bytecode cache
    setup_s, passes = [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        setup_s += start_times(IMPORT, tmp, 1)
        passes.append(process_pass(commands, tmp / f"pass{len(passes)}"))
    setup_s += start_times(IMPORT, tmp, max(0, SETUP_STARTS - len(setup_s)))
    same_as = None
    if any(workloads.serial(argv) != argv for argv in commands):
        same_as = process_pass([workloads.serial(argv) for argv in commands], tmp / "serial")
        passes.append(same_as)
    timed = passes[:-1] if same_as else passes
    samples = {
        "setup_s": setup_s,
        "wall_s": [p.wall for p in timed],
        "cpu_s": [p.cpu for p in timed],
        "peak_rss_mb": [p.maxrss_kb / 1024.0 for p in timed],
    }
    for key, values in samples.items():
        print(f"{name} {key} median={statistics.median(values):.6g} {units.get(key)} "
              f"n={len(values)} ({tail_percentile(values)})")
    values = {key: statistics.median(values) for key, values in samples.items()}
    return values, check(passes, new_references(), same_as)


def import_times(cwd: Path, starts: int) -> tuple[float, float]:
    """Median (numpy, lmgfisher without numpy) cumulative import seconds."""
    numpy_s, ours_s = [], []
    log = cwd / "importtime.log"
    for _ in range(starts):
        proc = spawn(python("-X", "importtime", *IMPORT), cwd, log)
        if proc.exit_code != 0:
            raise BenchError(f"import lmgfisher.cli exited with {proc.exit_code}")
        cumulative = {}
        for line in log.read_text().splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative.setdefault(parts[2].strip(), int(parts[1]) * 1e-6)
        numpy_s.append(cumulative["numpy"])
        ours_s.append(cumulative["lmgfisher.cli"] - cumulative["numpy"])
    return statistics.median(numpy_s), statistics.median(ours_s)


def load_cli():
    sys.path.insert(0, str(SRC))
    import lmgfisher
    import lmgfisher.cli

    if Path(lmgfisher.__file__).resolve().parent != (SRC / "lmgfisher").resolve():
        raise BenchError(f"imported lmgfisher from {lmgfisher.__file__}, not from {SRC}")
    return lmgfisher


def run_traced(name, commands, seconds, tmp, units, seed):
    import spans

    interpreter_s = statistics.median(start_times(["-c", "pass"], tmp, SETUP_STARTS))
    start_times(IMPORT, tmp, 1)  # warm-up: writes the bytecode cache
    import_numpy_s, import_lmgfisher_s = import_times(tmp, SETUP_STARTS)
    package = load_cli()
    inprocess_pass(package.cli, commands, tmp / "warmup")
    procs, plain, traced, layers = [], [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        k = len(traced)
        procs.append(process_pass(commands, tmp / f"process{k}"))
        if k % 2:  # alternate which serial pass goes first
            plain.append(inprocess_pass(package.cli, commands, tmp / f"plain{k}"))
        tracer = spans.Tracer()
        tracer.install(package)
        try:
            traced.append(inprocess_pass(package.cli, commands, tmp / f"traced{k}"))
        finally:
            tracer.restore()
        layers.append(spans.layer_metrics(tracer.spans))
        if not k % 2:
            plain.append(inprocess_pass(package.cli, commands, tmp / f"plain{k}"))

    WORK.mkdir(parents=True, exist_ok=True)
    with open(WORK / f"spans-{name}-seed{seed}.json", "w", encoding="utf-8") as fh:
        json.dump([asdict(s) for s in tracer.spans], fh)

    last = traced[-1]
    texts = [text or "" for _, _, text in last.outputs()]
    rows = sum(1 for text in texts for line in text.splitlines()[1:] if not line.startswith("# "))
    jobs = [workloads.parse_sweep(argv).jobs for argv in commands]
    serial_busy = sum(statistics.median(p.command_walls[i] for p in plain) / j
                      for i, j in enumerate(jobs))
    values = {key: statistics.median(layer[key] for layer in layers) for key in layers[0]}
    values.update({
        "setup.interpreter_s": interpreter_s,
        "setup.import_numpy_s": import_numpy_s,
        "setup.import_lmgfisher_s": import_lmgfisher_s,
        "cli.rows": rows,
        "cli.bytes_written": sum(len(text.encode()) for text in texts),
        "cli.pool_overhead_s": statistics.median(p.wall for p in procs) - serial_busy,
        "trace.overhead_s": statistics.median(p.wall for p in traced)
                            - statistics.median(p.wall for p in plain),
    })
    for key in sorted(values):
        print(f"{name} {key} {values[key]:.6g} {units.get(key)} (median of {len(layers)} traced passes)")
    # Serial in-process outputs are checked as they stand; fresh-process
    # outputs must also match the traced serial output row for row.
    refs = new_references()
    attempted, failed = check(plain + traced, refs)
    more = [check([p], refs, last) for p in procs]
    return values, (attempted + sum(a for a, _ in more), failed + sum(f for _, f in more))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.environ.update(ONE_THREAD)  # for the CLI processes and for this one
    # On SIGTERM, unwind as on an error: kill and reap the running child,
    # remove the scratch directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "lmgfisher" / "cli.py").is_file():
        print(f"error: no lmgfisher sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    commands = workloads.WORKLOADS[args.workload](args.seed)
    WORK.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        # The metric names and units are the ones BENCHMARK.json declares.
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
        if args.trace:
            values, (attempted, failed) = run_traced(args.workload, commands, args.seconds,
                                                     tmp, units, args.seed)
        else:
            values, (attempted, failed) = run_end_to_end(args.workload, commands,
                                                         args.seconds, tmp, units)
        if set(values) != set(units):
            raise BenchError(f"measured {sorted(values)}, BENCHMARK.json declares {sorted(units)}")
    except (BenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"{args.workload} fail_ratio={failed / attempted:.6g} ({failed} of {attempted} grid points)")
    metrics = {key: {"value": values[key], "unit": units[key]} for key in units}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
