import errno
import io
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from lmgfisher import analytic, cli
from lmgfisher.solver import ConvergenceError

HEADER = "mode,N,gamma,h,parity,energy,chi2,xi1_2,xi2_2,fisher,qcr,tl_chi2,tl_xi1_2,phase,status"


def read_lines(path):
    return path.read_text().splitlines()


def data_rows(lines):
    return [l for l in lines[1:] if l and not l.startswith("#")]


def summary_lines(lines):
    return [l for l in lines if l.startswith("#")]


def row_fields(row):
    return dict(zip(HEADER.split(","), row.split(","), strict=True))


def test_header_and_field_sweep_schema(tmp_path):
    out = tmp_path / "sweep.csv"
    code = cli.main([
        "--mode", "field-sweep", "--n", "40", "--gamma", "0.5",
        "--h-start", "0", "--h-stop", "2", "--h-step", "0.5",
        "--out", str(out),
    ])
    assert code == 0
    lines = read_lines(out)
    assert lines[0] == HEADER
    rows = data_rows(lines)
    assert len(rows) == 5
    fields = row_fields(rows[0])
    assert fields["mode"] == "field-sweep"
    assert fields["N"] == "40"
    assert fields["h"] == "0"
    assert fields["phase"] == "broken"
    assert fields["status"] == "ok"
    critical = row_fields(rows[2])
    assert critical["phase"] == "critical"
    assert critical["tl_chi2"] == ""  # diverges at h = 1
    assert row_fields(rows[4])["phase"] == "symmetric"


def test_field_sweep_isotropic_relations(tmp_path):
    out = tmp_path / "iso_sweep.csv"
    code = cli.main([
        "--mode", "field-sweep", "--n", "100", "--gamma", "1",
        "--h-start", "0.05", "--h-stop", "2.0", "--h-step", "0.15",
        "--out", str(out),
    ])
    assert code == 0
    for row in data_rows(read_lines(out)):
        fields = row_fields(row)
        chi2 = float(fields["chi2"])
        xi1 = float(fields["xi1_2"])
        if fields["phase"] == "broken":
            assert xi1 * chi2 == pytest.approx(1.0, rel=1e-10)
        elif fields["phase"] == "symmetric":
            assert chi2 == pytest.approx(1.0, abs=1e-10)
            assert xi1 == pytest.approx(1.0, abs=1e-10)


def test_field_sweep_matches_thermodynamic_limit(tmp_path):
    out = tmp_path / "tl.csv"
    code = cli.main([
        "--mode", "field-sweep", "--n", "500", "--gamma", "0.5",
        "--h", "2.0", "--out", str(out),
    ])
    assert code == 0
    fields = row_fields(data_rows(read_lines(out))[0])
    assert float(fields["chi2"]) == pytest.approx(0.816497, rel=0.01)
    assert float(fields["tl_chi2"]) == pytest.approx(0.816497, rel=1e-6)


def test_determinism_byte_identical(tmp_path):
    args = ["--mode", "field-sweep", "--n", "30", "--n", "20", "--gamma", "0.25",
            "--h-start", "0", "--h-stop", "1.5", "--h-step", "0.25"]
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_parallel_schedule_independence(tmp_path):
    # N = 1e6 and 1e7 in the broken phase take milliseconds per solve, so
    # the threads' dstevx calls overlap; a short switch interval makes the
    # threads' Python code interleave too.
    args = ["--mode", "field-sweep", "--n", "24", "--n", "12", "--n", "1000000", "--n", "10000000",
            "--gamma", "0.5", "--h-start", "0", "--h-stop", "2", "--h-step", "0.4"]
    csvs, interval = [], sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for jobs in ("1", "2", "4"):
            out = tmp_path / f"jobs{jobs}.csv"
            assert cli.main(args + ["--out", str(out), "--jobs", jobs]) == 0
            csvs.append(out.read_bytes())
    finally:
        sys.setswitchinterval(interval)
    assert csvs[1] == csvs[0] and csvs[2] == csvs[0]


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def count_thread_starts(monkeypatch, fail_at=None):
    """The threads whose start is asked for from here on, in a list that
    grows; start number `fail_at` raises RuntimeError, as when no thread
    is to be had."""
    start, started = threading.Thread.start, []

    def counting_start(thread):
        started.append(thread)
        if len(started) == fail_at:
            raise RuntimeError("can't start new thread")
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    return started


def pin_cpus(monkeypatch, count):
    """Make this process look as if it may run on `count` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)


def test_jobs_are_capped_at_the_cpus(tmp_path, monkeypatch):
    # --jobs 64 on 5 points with 2 CPUs runs the points in 2 threads: this
    # one and 1 started.
    pin_cpus(monkeypatch, 2)
    started = count_thread_starts(monkeypatch)
    out = tmp_path / "cpus.csv"
    assert cli.main(["--mode", "field-sweep", "--n", "10", "--gamma", "0.5", "--h-start", "0",
                     "--h-stop", "2", "--h-step", "0.5", "--jobs", "64", "--out", str(out)]) == 0
    assert len(started) == 1
    assert len(data_rows(read_lines(out))) == 5


@pytest.mark.parametrize("h_values,workers", [(["0.5", "1.0", "1.5"], [1, 2]), (["0.5"], [])])
def test_jobs_are_capped_at_the_grid_size(tmp_path, monkeypatch, h_values, workers):
    # --jobs 64 on a 3-point grid runs the points in 3 threads: this one
    # and 2 started; one point starts no thread.
    pin_cpus(monkeypatch, 3)
    started = count_thread_starts(monkeypatch)
    out = tmp_path / "capped.csv"
    argv = ["--mode", "field-sweep", "--n", "10", "--gamma", "0.5", "--jobs", "64", "--out", str(out)]
    for h in h_values:
        argv += ["--h", h]
    assert cli.main(argv) == 0
    assert len(started) == len(workers)
    assert len(data_rows(read_lines(out))) == len(h_values)


@pytest.mark.parametrize("fail_at", [1, 2])
def test_a_share_without_a_thread_runs_here(tmp_path, monkeypatch, fail_at):
    # When the first or the second thread cannot be started, no further
    # start is tried, the threads running take every point, and the CSV is
    # the serial one.
    args = ["--mode", "field-sweep", "--n", "12", "--gamma", "0.5", "--h", "0.5", "--h", "1", "--h", "1.5"]
    serial, parallel = tmp_path / "serial.csv", tmp_path / "parallel.csv"
    assert cli.main(args + ["--out", str(serial)]) == 0
    pin_cpus(monkeypatch, 3)
    started = count_thread_starts(monkeypatch, fail_at=fail_at)
    assert cli.main(args + ["--out", str(parallel), "--jobs", "3"]) == 0
    assert len(started) == fail_at
    assert serial.read_bytes() == parallel.read_bytes()


def test_jobs_leave_no_child_process(tmp_path):
    out = tmp_path / "joined.csv"
    before = threading.active_count()
    assert cli.main(["--mode", "field-sweep", "--n", "10", "--gamma", "0.5",
                     "--h-start", "0", "--h-stop", "2", "--h-step", "0.5",
                     "--out", str(out), "--jobs", "3"]) == 0
    assert threading.active_count() == before
    assert_no_child_left()


@pytest.mark.parametrize("where", ["here", "thread"])
def test_uncaught_exception_stops_every_share_after_its_point(tmp_path, monkeypatch, where):
    # An exception that one _row_task does not catch, at the first point
    # (h = 0.25) or at the second (h = 0.5), which two threads compute at
    # once, ends the sweep: the other thread finishes the point it is
    # computing and takes no other, every thread is joined, and the
    # exception propagates with no CSV.
    class Abort(BaseException):
        pass

    solve, started = cli.solver.lmg_ground_state, []
    computing, raised = threading.Event(), threading.Event()
    aborting = 0.25 if where == "here" else 0.5

    def abort_at_one_point(params):
        started.append(params.h)
        if params.h == aborting:
            assert computing.wait(30)
            raised.set()
            raise Abort
        computing.set()
        assert raised.wait(30)  # the exception comes while this point is computed
        return solve(params)

    monkeypatch.setattr(cli.solver, "lmg_ground_state", abort_at_one_point)
    pin_cpus(monkeypatch, 3)
    before = threading.active_count()
    with pytest.raises(Abort):
        cli.main(["--mode", "field-sweep", "--n", "10", "--gamma", "0.5",
                  "--h", "0.25", "--h", "0.5", "--h", "1.5", "--h", "1.75",
                  "--out", str(tmp_path / "x.csv"), "--jobs", "2"])
    assert sorted(started) == [0.25, 0.5]
    assert threading.active_count() == before
    assert not (tmp_path / "x.csv").exists()


def test_exception_starting_a_thread_stops_the_running_ones_after_their_point(tmp_path, monkeypatch):
    # A BaseException from the second thread's start, raised while the
    # first thread computes its point (h = 0.25), ends the sweep: the
    # points no thread has taken are dropped, the running thread takes no
    # other, it is joined, and the exception propagates with no CSV and
    # no temporary file.
    class Abort(BaseException):
        pass

    solve, start, started, threads = cli.solver.lmg_ground_state, threading.Thread.start, [], []
    computing, raised = threading.Event(), threading.Event()

    def hold_the_point(params):
        started.append(params.h)
        computing.set()
        assert raised.wait(30)  # the exception comes while this point is computed
        return solve(params)

    def fail_the_second_start(thread):
        threads.append(thread)
        if len(threads) == 2:
            assert computing.wait(30)
            raised.set()
            raise Abort
        start(thread)

    monkeypatch.setattr(cli.solver, "lmg_ground_state", hold_the_point)
    monkeypatch.setattr(threading.Thread, "start", fail_the_second_start)
    pin_cpus(monkeypatch, 4)
    before = threading.active_count()
    with pytest.raises(Abort):
        cli.main(["--mode", "field-sweep", "--n", "10", "--gamma", "0.5",
                  "--h", "0.25", "--h", "0.5", "--h", "1.5", "--h", "1.75",
                  "--out", str(tmp_path / "x.csv"), "--jobs", "3"])
    assert started == [0.25]
    assert len(threads) == 2 and not any(thread.is_alive() for thread in threads)
    assert threading.active_count() == before
    assert list(tmp_path.iterdir()) == []


def test_rows_ordered_by_n_then_h(tmp_path):
    out = tmp_path / "order.csv"
    assert cli.main([
        "--mode", "field-sweep", "--n", "30", "--n", "10", "--gamma", "0.0",
        "--h", "1.5", "--h", "0.5", "--out", str(out),
    ]) == 0
    keys = [(int(f["N"]), float(f["h"]))
            for f in map(row_fields, data_rows(read_lines(out)))]
    assert keys == sorted(keys)


def test_signed_zero_fields_write_zero_in_any_flag_order(tmp_path):
    texts = []
    for order in (["-0.0", "0"], ["0", "-0.0"]):
        out = tmp_path / "zero.csv"
        assert cli.main(["--mode", "field-sweep", "--n", "4", "--gamma", "-0",
                         "--h", order[0], "--h", order[1], "--out", str(out)]) == 0
        texts.append(out.read_bytes())
    assert texts[0] == texts[1]
    fields = row_fields(data_rows(read_lines(out))[0])
    assert (fields["gamma"], fields["h"]) == ("0", "0")


def test_empty_h_is_usage_error(tmp_path):
    out = tmp_path / "never.csv"
    code = cli.main(["--mode", "field-sweep", "--n", "10", "--gamma", "0.5",
                     "--out", str(out)])
    assert code == 1
    assert not out.exists()


def test_bad_mode_and_missing_out_are_usage_errors(tmp_path):
    assert cli.main(["--mode", "bogus", "--n", "4", "--gamma", "0.5",
                     "--h", "1.0", "--out", str(tmp_path / "x.csv")]) == 1
    assert cli.main(["--mode", "field-sweep", "--n", "4", "--gamma", "0.5",
                     "--h", "1.0"]) == 1


@pytest.mark.parametrize("argv", [
    ["--mode", "field-sweep", "--gamma", "0.5", "--h", "nan"],
    ["--mode", "analytic-only", "--gamma", "0.5", "--h", "inf"],
    ["--mode", "field-sweep", "--gamma", "nan", "--h", "0.5"],
    ["--mode", "field-sweep", "--gamma", "inf", "--h", "0.5"],
    ["--mode", "field-sweep", "--gamma", "0.5", "--h-start", "0", "--h-stop", "inf", "--h-step", "0.1"],
    ["--mode", "field-sweep", "--gamma", "0.5", "--h-start", "0", "--h-stop", "1", "--h-step", "nan"],
    # finite bounds and step, but the point count overflows a float
    ["--mode", "field-sweep", "--gamma", "0.5", "--h-start", "0", "--h-stop", "1e300", "--h-step", "1e-300"],
    ["--mode", "field-sweep", "--gamma", "0.5", "--h", "1e308"],
    # h N is checked against the largest N: finite at N = 10, not at 1000
    ["--mode", "field-sweep", "--gamma", "0.5", "--h", "1e306", "--n", "1000"],
    ["--mode", "field-sweep", "--gamma", "0.5", "--h", "0.5", "--n", "1" + "0" * 400],  # N past a float
    ["--mode", "field-sweep", "--gamma", "0.5", "--h", "1.5", "--n", "1" + "0" * 18],  # N past MAX_N_SPINS
    # a finite point count, rejected before a list of 1e300 + 1 floats is built
    ["--mode", "field-sweep", "--gamma", "0.5", "--h-start", "0", "--h-stop", "1", "--h-step", "1e-300"],
])
def test_non_finite_inputs_are_usage_errors(tmp_path, argv):
    out = tmp_path / "never.csv"
    assert cli.main([*argv, "--n", "10", "--out", str(out)]) == 1
    assert not out.exists()


def test_h_range_point_limit():
    with pytest.raises(cli.UsageError):
        cli._expand_range(0.0, 1.0, 1e-6)  # 10^6 + 1 points
    assert len(cli._expand_range(0.0, 1.0, 1.0 / (cli.MAX_H_POINTS - 1))) == cli.MAX_H_POINTS


@pytest.mark.parametrize("target", ["missing/x.csv", ".", "fifo"])
def test_unwritable_out_is_usage_error_before_solving(tmp_path, monkeypatch, target):
    def never(params):
        raise AssertionError("solved before the output path was checked")

    monkeypatch.setattr(cli.solver, "lmg_ground_state", never)
    out = tmp_path / target
    if target == "fifo":
        os.mkfifo(out)  # not a regular file: the CSV must not be renamed over it
    before = sorted(p.name for p in tmp_path.iterdir())
    assert cli.main(["--mode", "field-sweep", "--n", "10", "--gamma", "0.5",
                     "--h", "0.5", "--out", str(out)]) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    assert target != "fifo" or out.is_fifo()


_SWEEP = ["--mode", "field-sweep", "--n", "10", "--gamma", "0.5"]


@pytest.mark.parametrize("argv,rule", [
    (_SWEEP + ["--h-start", "0", "--h-stop", "1", "--h-step", "0"], "h-step must be > 0"),
    (_SWEEP + ["--h-start", "1", "--h-stop", "0", "--h-step", "0.1"], "empty h range"),
    (["--n", "10", "--gamma", "0.5", "--h", "0.5"], "--mode is required"),
    (["--mode", "field-sweep", "--gamma", "0.5", "--h", "0.5"], "at least one --n is required"),
    (["--mode", "field-sweep", "--n", "10", "--h", "0.5"], "--gamma is required"),
    (_SWEEP + ["--h", "0.5", "--h-start", "0"], "give either --h or --h-start/--h-stop/--h-step"),
    (_SWEEP + ["--h-start", "0", "--h-stop", "1"], "an h range needs all of --h-start, --h-stop, --h-step"),
    (_SWEEP + ["--h", "0.5", "--jobs", "0"], "jobs must be >= 1"),
    (_SWEEP + ["--h", "0.5"], "is not writable"),
], ids=["step", "empty-range", "mode", "n", "gamma", "h-and-range", "part-range", "jobs", "unwritable"])
def test_usage_errors_name_their_rule(tmp_path, monkeypatch, capsys, argv, rule):
    # Each rule's one error line, and no file; the unwritable case fakes
    # os.access, which a root user passes whatever the mode bits say.
    if rule == "is not writable":
        monkeypatch.setattr(os, "access", lambda path, mode: False)
    assert cli.main([*argv, "--out", str(tmp_path / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and rule in err and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


_CONFIG = "mode=field-sweep\nn=10,20\ngamma=0.5\nh=0.5 1.5\nout=file.csv\n"


@pytest.mark.parametrize("argv,config", [
    (["--mo=field-sweep", "--n=10", "--gam", "0.5", "--h=0.5", "--ou", "x.csv"],
     ("field-sweep", [("field-sweep", 10, 0.5, 0.5)], 1, "x.csv")),
    (["--mode", "analytic-only", "--n", "4", "--gamma", "-0", "--h", "0.5", "--out", "x.csv"],
     ("analytic-only", [("analytic-only", 4, 0.0, 0.5)], 1, "x.csv")),
    (["--mode", "field-sweep", "--n", "4", "--gamma", "0.5", "--h-sta", "0", "--h-stop=1",
      "--h-step", "0.5", "--out", "x.csv"],
     ("field-sweep", [("field-sweep", 4, 0.5, h) for h in (0.0, 0.5, 1.0)], 1, "x.csv")),
    (["--mode", "field-sweep", "--n", "30", "--n=10", "--gamma", "0.5", "--h", "1.5",
      "--h", "0.5", "--h=1.5", "--out", "x.csv", "--jobs", "2", "--jobs", "3"],
     ("field-sweep", [("field-sweep", n, 0.5, h) for n in (10, 30) for h in (0.5, 1.5)], 3, "x.csv")),
    (["--mode", "size-scaling", "--mode", "field-sweep", "--n", "10", "--gamma", "0.5",
      "--gamma", "0.25", "--h", "-0.0", "--h", "0", "--out", "x.csv", "--out", "y.csv"],
     ("field-sweep", [("field-sweep", 10, 0.25, 0.0)], 1, "y.csv")),
    (["--config", "{cfg}", "--n", "30", "--out", "b.csv"],
     ("field-sweep", [("field-sweep", 30, 0.5, h) for h in (0.5, 1.5)], 1, "b.csv")),
    (["--conf={cfg}", "--gamma", "0.25"],
     ("field-sweep", [("field-sweep", n, 0.25, h) for n in (10, 20) for h in (0.5, 1.5)], 1, "file.csv")),
], ids=["equals-and-prefixes", "h-beside-h-start", "h-range", "repeated", "last-wins",
        "config-n-replaced", "config"])
def test_flag_spellings_give_their_config(tmp_path, argv, config):
    # Each result is what the argparse parser this one replaced gave.
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(_CONFIG)
    built = cli.build_config(cli.parse_flags([arg.replace("{cfg}", str(cfg)) for arg in argv]))
    assert built == config
    assert all(math.copysign(1.0, gamma) == math.copysign(1.0, h) == 1.0 for _, _, gamma, h in built[1])


@pytest.mark.parametrize("flags,message", [
    (["--h-s", "0.5"], "option --h-s not a unique prefix"),
    (["--bogus", "1"], "option --bogus not recognized"),
    (["--n"], "option --n requires argument"),
    (["--out", "--help"], "argument --out: expected one argument"),
    (["x"], "unrecognized arguments: x"),
    (["--n", "1.5"], "argument --n: invalid int value: '1.5'"),
    (["--gamma", "abc"], "argument --gamma: invalid float value: 'abc'"),
    (["--mode", "bogus"], "argument --mode: invalid choice: 'bogus' (choose from field-sweep,"),
    (["--config", "{cfg}"], "{cfg}: argument --jobs: invalid int value: 'two'"),
], ids=["ambiguous", "unknown", "no-value", "flag-for-value", "stray", "int", "float", "mode",
        "config-value"])
def test_bad_flags_are_one_error_line(tmp_path, monkeypatch, capsys, flags, message):
    monkeypatch.chdir(tmp_path)  # where an --out taken from the next flag would go
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("jobs=two\n")
    argv = [*_SWEEP, "--h", "0.5", "--out", str(tmp_path / "x.csv"), *flags]
    assert cli.main([arg.replace("{cfg}", str(cfg)) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: " + message.replace("{cfg}", str(cfg))) and err.count("\n") == 1, err
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_prints_the_usage(tmp_path, capsys, flag):
    assert cli.main([*_SWEEP, "--h", "0.5", "--out", str(tmp_path / "x.csv"), flag]) == 0
    usage = capsys.readouterr().out
    assert usage.startswith("Command-line sweep driver.\n\nusage: lmgfisher --mode")
    assert all(f"--{name} " in usage for name in cli._FLAGS) and "-h | --help" in usage
    assert list(tmp_path.iterdir()) == []


def test_csv_replaced_atomically(tmp_path, monkeypatch):
    out = tmp_path / "sweep.csv"
    out.write_text("old\n")
    renames = []
    replace = os.replace

    def recording(src, dst):
        assert Path(src).read_text().startswith(HEADER)  # complete before the rename
        assert out.read_text() == "old\n"
        renames.append((Path(src), Path(dst)))
        replace(src, dst)

    monkeypatch.setattr(cli.os, "replace", recording)
    assert cli.main(["--mode", "field-sweep", "--n", "10", "--gamma", "0.5",
                     "--h", "0.5", "--out", str(out)]) == 0
    [(src, dst)] = renames
    assert src.parent == tmp_path and dst == out
    assert read_lines(out)[0] == HEADER
    assert [p.name for p in tmp_path.iterdir()] == ["sweep.csv"]


def test_csv_writer_leaves_a_file_it_did_not_make(tmp_path):
    # A killed run can leave a file under the name a pid-based temporary
    # would take, and pids are reused.
    out = tmp_path / "sweep.csv"
    stranger = tmp_path / f"sweep.csv.{os.getpid()}.tmp"
    stranger.write_text("not ours\n")
    assert cli.main(["--mode", "field-sweep", "--n", "10", "--gamma", "0.5",
                     "--h", "0.5", "--out", str(out)]) == 0
    assert read_lines(out)[0] == HEADER
    assert stranger.read_text() == "not ours\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([out.name, stranger.name])


def test_csv_gets_the_default_file_mode(tmp_path):
    out = tmp_path / "mode.csv"
    umask = os.umask(0o022)
    try:
        assert cli.main(["--mode", "analytic-only", "--n", "10", "--gamma", "0.5",
                         "--h", "0.5", "--out", str(out)]) == 0
    finally:
        os.umask(umask)
    assert out.stat().st_mode & 0o777 == 0o644


def test_isotropic_summary_streams_its_lines(tmp_path):
    # N = 2e5 writes 1e5 crossing lines, which would take about 20 MB
    # held at once as lines and as one joined string, and 3.4 MB as the
    # list of their fields.
    out = tmp_path / "iso.csv"
    tracemalloc.start()
    try:
        assert cli.main(["--mode", "isotropic", "--n", "200000", "--h", "0.5", "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    crossings = [l for l in summary_lines(read_lines(out)) if l.startswith("# crossing")]
    assert len(crossings) == 100000
    assert crossings[-1] == f"# crossing,N=200000,j=99999,h={cli._fmt(1.0 - 199999 / 200000)}"


def _fresh(code: str, *flags: str) -> subprocess.CompletedProcess:
    """`code` run in a fresh interpreter, with `flags`, that imports this lmgfisher."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env.pop("PYTHONUNBUFFERED", None)  # stdout and stderr buffered, as by default
    return subprocess.run([sys.executable, *flags, "-c", code], env=env, capture_output=True, text=True,
                          check=True)


# The modules a CLI process must not load; then whether numpy is loaded.
_UNWANTED = ("print(sorted(m for m in sys.modules"
             " if m.split('.')[0] in ('scipy', 'concurrent', 'multiprocessing', 'dataclasses',"
             " 'statistics', 'decimal', 'fractions', 'argparse', 'locale', '__future__')"
             " or m.startswith('numpy.ctypeslib')), 'numpy' in sys.modules)")


def test_cli_import_leaves_scipy_unloaded():
    # The solver needs numpy only.  Importing scipy.linalg with
    # lmgfisher.cli took 0.46-0.56 s against 0.20-0.24 s without it, and
    # raised peak RSS from 30 MB to 56 MB (2-vCPU Xeon, Python 3.11.7,
    # numpy 2.4.6); every CLI process would pay that.  The records are
    # NamedTuples and LAPACK takes raw addresses, so dataclasses and
    # numpy.ctypeslib stay unloaded too: with the 8 dataclass definitions
    # they took about 16 ms of each start after numpy on that host.  The
    # scaling fits sum exact integers from float.as_integer_ratio, not
    # statistics: its decimal and fractions would add about 0.6 MB of peak
    # RSS to each size-scaling process.  The flags are read with getopt:
    # argparse, and the locale module that its first parser's gettext
    # lookup imports, added about 0.5 MB to each CLI run.  The annotations
    # evaluate at definition on Python 3.10+, so no module imports
    # __future__, which a CLI start loaded for that import alone.  numpy
    # itself is imported here, as the benchmark's import-time split expects.
    assert _fresh(f"import sys, lmgfisher.cli; {_UNWANTED}").stdout == "[] True\n"


def test_jobs_sweep_loads_no_pool_modules(tmp_path):
    # --jobs starts its threads itself: concurrent.futures and
    # multiprocessing, 24 ms of import on the host above, stay unloaded,
    # and so do the modules the import above leaves out.
    out = tmp_path / "probe.csv"
    code = ("import sys, lmgfisher.cli; assert lmgfisher.cli.main(['--mode', 'field-sweep', '--n', '10',"
            f" '--gamma', '0.5', '--h', '0.5', '--h', '1.5', '--jobs', '2', '--out', {str(out)!r}]) == 0; "
            + _UNWANTED)
    assert _fresh(code).stdout == "[] True\n"
    assert len(data_rows(read_lines(out))) == 2


def test_jobs_print_buffered_output_once(tmp_path):
    # Text still buffered when the sweep starts its threads is printed
    # once: the threads share this process's buffers and copy none.
    out = tmp_path / "buffered.csv"
    code = ("import sys, lmgfisher.cli; sys.stdout.write('out:'); sys.stderr.write('err:'); "
            "print(lmgfisher.cli.main(['--mode', 'field-sweep', '--n', '10', '--gamma', '0.5',"
            f" '--h', '0.5', '--h', '1.5', '--jobs', '2', '--out', {str(out)!r}]))")
    done = _fresh(code)
    assert (done.stdout, done.stderr) == ("out:0\n", "err:")


def test_jobs_sweep_in_dev_mode_warns_of_nothing(tmp_path, monkeypatch):
    # Under -X dev -W error a descriptor left open is a ResourceWarning that
    # reaches stderr, and on Python 3.12+ so would a fork of this process,
    # which numpy's OpenBLAS makes multi-threaded without OPENBLAS_NUM_THREADS.
    args = ["--mode", "field-sweep", "--n", "10", "--n", "20", "--gamma", "0.5",
            "--h", "0.25", "--h", "0.5", "--h", "1.5"]
    serial, threaded = tmp_path / "serial.csv", tmp_path / "threaded.csv"
    assert cli.main(args + ["--out", str(serial)]) == 0
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    argv = args + ["--out", str(threaded), "--jobs", "3"]
    done = _fresh(f"import lmgfisher.cli; print(lmgfisher.cli.main({argv!r}))", "-X", "dev", "-W", "error")
    assert (done.stdout, done.stderr) == ("0\n", "")
    assert threaded.read_bytes() == serial.read_bytes()


_EXIT_PROBE = "import atexit, gc; atexit.register(lambda: print('frozen at exit', gc.get_freeze_count() > 0)); "


def test_cli_freezes_the_heap_only_at_exit(tmp_path):
    # lmgfisher.cli registers gc.freeze with atexit, so the collections of
    # interpreter shutdown skip the heap.  A probe registered before the
    # import runs after the freeze (atexit runs last in, first out); the
    # sweep itself runs with nothing frozen.
    out = tmp_path / "one.csv"
    code = (_EXIT_PROBE + "import lmgfisher.cli as cli; solve = cli.solver.lmg_ground_state; "
            "cli.solver.lmg_ground_state = lambda p: (print('frozen in main', gc.get_freeze_count()), solve(p))[1]; "
            "print(cli.main(['--mode', 'field-sweep', '--n', '10', '--gamma', '0.5', '--h', '0.5',"
            f" '--out', {str(out)!r}]))")
    assert _fresh(code).stdout == "frozen in main 0\n0\nfrozen at exit True\n"
    assert len(data_rows(read_lines(out))) == 1


def test_package_import_freezes_nothing():
    assert _fresh(_EXIT_PROBE + "import lmgfisher").stdout == "frozen at exit False\n"


def test_size_scaling_summary(tmp_path):
    out = tmp_path / "scaling.csv"
    code = cli.main([
        "--mode", "size-scaling", "--gamma", "0.5", "--h", "0.5",
        "--n", "100", "--n", "200", "--n", "300", "--n", "400",
        "--out", str(out),
    ])
    assert code == 0
    lines = read_lines(out)
    rows = data_rows(lines)
    assert len(rows) == 4
    summary = summary_lines(lines)
    power = [l for l in summary if l.startswith("# power_law_fit")]
    linear = [l for l in summary if l.startswith("# linear_fit")]
    assert len(power) == 1 and len(linear) == 1
    exponent = float(dict(kv.split("=") for kv in power[0][2:].split(",")[1:])["exponent"])
    assert -1.05 <= exponent <= -0.95
    slope = float(dict(kv.split("=") for kv in linear[0][2:].split(",")[1:])["slope"])
    assert slope == pytest.approx(0.75, rel=0.02)  # 1/chi2 ~ (1-h^2)(N+2)


def test_size_scaling_requires_single_h(tmp_path):
    code = cli.main([
        "--mode", "size-scaling", "--gamma", "0.5", "--h", "0.5", "--h", "0.6",
        "--n", "50", "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 1


def test_size_scaling_symmetric_phase_flat(tmp_path):
    out = tmp_path / "flat.csv"
    code = cli.main([
        "--mode", "size-scaling", "--gamma", "0.5", "--h", "1.5",
        "--n", "100", "--n", "200", "--n", "300", "--n", "400",
        "--out", str(out),
    ])
    assert code == 0
    values = [float(row_fields(r)["chi2"]) for r in data_rows(read_lines(out))]
    assert (max(values) - min(values)) / min(values) < 0.01


def test_isotropic_mode(tmp_path):
    out = tmp_path / "iso.csv"
    code = cli.main([
        "--mode", "isotropic", "--n", "100",
        "--h-start", "0.02", "--h-stop", "1.3", "--h-step", "0.08",
        "--out", str(out),
    ])
    assert code == 0
    lines = read_lines(out)
    crossings = [l for l in summary_lines(lines) if l.startswith("# crossing")]
    assert crossings[0] == "# crossing,N=100,j=0,h=0.98999999999999999"
    assert len(crossings) == 50
    for row in data_rows(lines):
        fields = row_fields(row)
        assert fields["gamma"] == "1"
        # closed form in the tl columns agrees with the solved value
        assert float(fields["chi2"]) == pytest.approx(float(fields["tl_chi2"]), abs=1e-10)
        if float(fields["h"]) >= 1.0:
            assert float(fields["chi2"]) == pytest.approx(1.0, abs=1e-10)
    closed = [l for l in summary_lines(lines) if l.startswith("# closed_form")]
    assert len(closed) == len(data_rows(lines))
    first = dict(kv.split("=") for kv in closed[0][2:].split(",")[1:])
    assert first["N"] == "100"
    assert float(first["M0"]) == 1.0  # h = 0.02: round(49) flipped spins
    assert first["E"]  # energy field populated


def test_isotropic_mode_at_the_largest_fields(tmp_path):
    # The closed-form energy stays finite wherever h N is: E = -h N at h >= 1.
    out = tmp_path / "iso.csv"
    assert cli.main(["--mode", "isotropic", "--n", "4", "--h", "1e300", "--out", str(out)]) == 0
    lines = read_lines(out)
    assert row_fields(data_rows(lines)[0])["status"] == "ok"
    assert lines[-1] == f"# closed_form,N=4,h={cli._fmt(1e300)},M0=2,E={cli._fmt(-4e300)}"


def test_isotropic_summary_skips_crossings_below_two_spins(tmp_path):
    # N = 1 has no level crossing to list; N = 4 lists its two
    out = tmp_path / "iso.csv"
    assert cli.main(["--mode", "isotropic", "--n", "1", "--n", "4", "--h", "0.5", "--out", str(out)]) == 0
    lines = read_lines(out)
    assert [row_fields(r)["status"] for r in data_rows(lines)] == ["ok", "ok"]
    crossings = [l.split(",")[1:3] for l in summary_lines(lines) if l.startswith("# crossing")]
    assert crossings == [["N=4", "j=0"], ["N=4", "j=1"]]


def test_isotropic_mode_rejects_other_gamma(tmp_path):
    code = cli.main([
        "--mode", "isotropic", "--n", "20", "--gamma", "0.5",
        "--h", "0.5", "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 1


def test_analytic_only_mode(tmp_path):
    out = tmp_path / "analytic.csv"
    code = cli.main([
        "--mode", "analytic-only", "--n", "1000", "--gamma", "0.25",
        "--h", "0.5", "--h", "2.0", "--out", str(out),
    ])
    assert code == 0
    rows = [row_fields(r) for r in data_rows(read_lines(out))]
    assert all(r["parity"] == "" and r["energy"] == "" and r["chi2"] == "" for r in rows)
    assert float(rows[0]["tl_xi1_2"]) == pytest.approx(1.0, rel=1e-12)  # h = sqrt(gamma)
    assert float(rows[1]["tl_chi2"]) == pytest.approx(math.sqrt(1.0 / 1.75), rel=1e-12)


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "# sweep configuration\n"
        "mode=field-sweep\n"
        "n=10,20\n"
        "gamma=0.5\n"
        "h=0.5 1.5\n"
        "jobs=1\n"
    )
    out = tmp_path / "from_config.csv"
    code = cli.main(["--config", str(cfg), "--out", str(out), "--gamma", "0.25"])
    assert code == 0
    rows = [row_fields(r) for r in data_rows(read_lines(out))]
    assert len(rows) == 4
    assert all(r["gamma"] == "0.25" for r in rows)  # flag overrides file
    # a flag's list replaces the file's list
    assert cli.main(["--config", str(cfg), "--out", str(out), "--n", "30"]) == 0
    rows = [row_fields(r) for r in data_rows(read_lines(out))]
    assert [r["N"] for r in rows] == ["30", "30"]


def test_config_file_with_a_byte_order_mark(tmp_path):
    # Windows editors start a UTF-8 file with a BOM; it is not part of the first key.
    text = "mode=field-sweep\nn=10\ngamma=0.5\nh=0.5,1.5\n"
    plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    outs = [tmp_path / "plain.csv", tmp_path / "marked.csv"]
    for cfg, out in zip((plain, marked), outs):
        assert cli.main(["--config", str(cfg), "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


@pytest.mark.parametrize("flag_out", [False, True], ids=["file-out", "flag-out"])
def test_config_file_out(tmp_path, flag_out):
    cfg = tmp_path / "sweep.cfg"
    from_file = tmp_path / "from_file.csv"
    from_flag = tmp_path / "from_flag.csv"
    cfg.write_text(f"mode=field-sweep\nn=10\ngamma=0.5\nh=0.5\nout={from_file}\n")
    argv = ["--config", str(cfg)] + (["--out", str(from_flag)] if flag_out else [])
    assert cli.main(argv) == 0
    written = from_flag if flag_out else from_file  # the flag wins over the file
    assert len(data_rows(read_lines(written))) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["sweep.cfg", written.name])


@pytest.mark.parametrize("text", [
    b"mode field-sweep\n",
    b"mode=field-sweep\nn=10.6\ngamma=0.5\nh=0.5\n",  # N is parsed as by --n
    b"mode=field-sweep\nn=10\ngamma=0.5\nh=0.5\njbos=2\n",  # unknown keys are not dropped
    b"n=10\n\xff\n",  # not UTF-8
], ids=["no-equals", "non-integer-n", "unknown-key", "not-utf8"])
def test_config_file_bad_line(tmp_path, capsys, text):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(text)
    out = tmp_path / "x.csv"
    assert cli.main(["--config", str(cfg), "--out", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_config_file_naming_another_is_a_usage_error(tmp_path, capsys):
    # Each line of a config file is read as its flag, and a --config inside
    # one would be dropped, the command line's --config winning the merge.
    other, cfg = tmp_path / "other.cfg", tmp_path / "a.cfg"
    other.write_text("gamma=0.25\n")
    cfg.write_text(f"mode=field-sweep\nn=10\nconfig={other}\ngamma=0.5\nh=0.5\n")
    out = tmp_path / "x.csv"
    assert cli.main(["--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {cfg}:3: a config file cannot name another one\n"
    assert not out.exists()


@pytest.mark.parametrize("step", ["mkstemp", "replace"])
def test_failed_csv_write_is_one_error_line(tmp_path, monkeypatch, capsys, step):
    # A full disk, or an --out that passes the directory check but cannot
    # be created (in a pseudo-filesystem that root may "write"): exit 1,
    # no file left.
    def full(*args, **kwargs):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(cli.tempfile if step == "mkstemp" else cli.os, step, full)
    out = tmp_path / "x.csv"
    assert cli.main(["--mode", "field-sweep", "--n", "10", "--gamma", "0.5",
                     "--h", "0.5", "--out", str(out)]) == 1
    assert list(tmp_path.iterdir()) == []
    err = capsys.readouterr().err
    assert err == f"error: cannot write {out}: [Errno {errno.ENOSPC}] No space left on device\n"


def test_convergence_failure_sets_status_and_exit_code(tmp_path, monkeypatch):
    def explode(params):
        raise ConvergenceError("forced failure", residual=1.0)

    monkeypatch.setattr(cli.solver, "lmg_ground_state", explode)
    out = tmp_path / "failed.csv"
    code = cli.main([
        "--mode", "field-sweep", "--n", "10", "--gamma", "0.5",
        "--h", "0.5", "--out", str(out), "--jobs", "1",
    ])
    assert code == 2
    fields = row_fields(data_rows(read_lines(out))[0])
    assert fields["status"] == "convergence_error"
    assert fields["chi2"] == ""
    assert fields["tl_chi2"] != ""  # analytics still present


_SOLVED = {"parity", "energy", "chi2", "xi1_2", "xi2_2", "fisher", "qcr"}
_MODE_ARGS = {
    "field-sweep": ["--n", "10", "--gamma", "0.5", "--h", "0.5", "--h", "1"],
    "size-scaling": ["--n", "10", "--n", "20", "--n", "30", "--gamma", "0.5", "--h", "1.5"],
    "isotropic": ["--n", "10", "--h", "0.5", "--h", "1.5"],
    "analytic-only": ["--n", "10", "--gamma", "0.5", "--h", "0.5", "--h", "1"],
}
_FAILURES = {"error": ZeroDivisionError("forced failure"),
             "convergence_error": ConvergenceError("forced failure", residual=1.0)}


@pytest.mark.parametrize("mode,status", [
    *((mode, "ok") for mode in cli.MODES),
    *((mode, status) for mode in cli.MODES if mode != "analytic-only" for status in _FAILURES),
])
def test_rows_leave_exactly_the_unavailable_fields_empty(tmp_path, monkeypatch, mode, status):
    # Every field a row can have is filled: a misspelled field name would
    # leave its column empty.  Empty are the thermodynamic-limit fields at
    # h = 1, the solved fields in analytic-only mode, and the solved fields
    # of a point whose solve failed.
    if status in _FAILURES:
        def fail(params):
            raise _FAILURES[status]

        monkeypatch.setattr(cli.solver, "lmg_ground_state", fail)
    out = tmp_path / "rows.csv"
    assert cli.main(["--mode", mode, *_MODE_ARGS[mode], "--out", str(out)]) == (0 if status == "ok" else 2)
    rows = [row_fields(r) for r in data_rows(read_lines(out))]
    assert len(rows) == (3 if mode == "size-scaling" else 2)
    for fields in rows:
        empty = set()
        if fields["h"] == "1":
            empty |= {"tl_chi2", "tl_xi1_2"}
        if mode == "analytic-only" or status != "ok":
            empty |= _SOLVED
        assert {name for name, value in fields.items() if value == ""} == empty
        assert fields["status"] == status


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_unexpected_exception_sets_error_status(tmp_path, monkeypatch, capfd, jobs):
    # Any other exception in one grid point marks that row, and only it,
    # and the sweep still writes every row, serially in this thread or, at
    # --jobs 2, with h = 0.5 failing on another thread than h = 0.25, whose
    # solve waits until the failing one has started.
    solve, threads, half_started = cli.solver.lmg_ground_state, {}, threading.Event()

    def failing_at_half(params):
        threads[params.h] = threading.current_thread()
        if params.h == 0.5:
            half_started.set()
            raise ZeroDivisionError("forced failure")
        if params.h == 0.25 and jobs == "2":
            assert half_started.wait(30)
        return solve(params)

    monkeypatch.setattr(cli.solver, "lmg_ground_state", failing_at_half)
    pin_cpus(monkeypatch, 3)
    out = tmp_path / "partial.csv"
    code = cli.main([
        "--mode", "field-sweep", "--n", "10", "--gamma", "0.5",
        "--h", "0.25", "--h", "0.5", "--h", "1.5", "--out", str(out), "--jobs", jobs,
    ])
    assert code == 2
    rows = [row_fields(r) for r in data_rows(read_lines(out))]
    assert [r["status"] for r in rows] == ["ok", "error", "ok"]
    assert rows[1]["chi2"] == rows[1]["parity"] == ""
    assert rows[1]["tl_chi2"] != ""  # analytics still present
    assert all(r["chi2"] != "" for r in (rows[0], rows[2]))
    assert capfd.readouterr().err == "error: N=10, h=0.5: ZeroDivisionError: forced failure\n"
    if jobs == "1":
        assert set(threads.values()) == {threading.main_thread()}
    else:
        assert threads[0.25] is not threads[0.5]


def test_error_lines_of_concurrent_shares_stay_whole(tmp_path, monkeypatch):
    # Both threads of a --jobs 2 sweep fail at once, onto a stderr whose
    # every write lets the other thread run: each line is one write, so
    # the two lines do not splice.
    class YieldingStream(io.StringIO):
        def write(self, text):
            time.sleep(0.01)
            return super().write(text)

    both = threading.Barrier(2, timeout=30)

    def failing_together(params):
        both.wait()
        raise ZeroDivisionError(f"at {params.h}")

    stream = YieldingStream()
    monkeypatch.setattr(sys, "stderr", stream)
    monkeypatch.setattr(cli.solver, "lmg_ground_state", failing_together)
    pin_cpus(monkeypatch, 3)
    code = cli.main(["--mode", "field-sweep", "--n", "10", "--gamma", "0.5",
                     "--h", "0.25", "--h", "0.5", "--out", str(tmp_path / "both.csv"), "--jobs", "2"])
    assert code == 2
    assert sorted(stream.getvalue().splitlines(keepends=True)) == [
        "error: N=10, h=0.25: ZeroDivisionError: at 0.25\n",
        "error: N=10, h=0.5: ZeroDivisionError: at 0.5\n",
    ]


def test_float_formatting_17_significant_digits(tmp_path):
    out = tmp_path / "fmt.csv"
    assert cli.main([
        "--mode", "field-sweep", "--n", "10", "--gamma", "0.5",
        "--h-start", "0.1", "--h-stop", "0.3", "--h-step", "0.1",
        "--out", str(out),
    ]) == 0
    rows = data_rows(read_lines(out))
    hs = [row_fields(r)["h"] for r in rows]
    assert hs[0] == format(0.1, ".17g")
    assert hs[1] == format(0.1 + 0.1, ".17g")
    energies = [row_fields(r)["energy"] for r in rows]
    assert all(float(e) < 0 for e in energies)


def test_infinity_prints_as_inf(tmp_path):
    # gamma=1, h well below 1: ground state is a Dicke state with M0 = 0
    out = tmp_path / "inf.csv"
    assert cli.main([
        "--mode", "isotropic", "--n", "100", "--h", "0.0",
        "--out", str(out),
    ]) == 0
    fields = row_fields(data_rows(read_lines(out))[0])
    assert fields["xi2_2"] == "inf"


def test_csv_field_spellings():
    # the settled 17-digit contract: N up to 1e9 exact, infinities by name
    spellings = {None: "", "ok": "ok", 1: "1", 10**9: "1000000000",
                 math.inf: "inf", -math.inf: "-inf", 0.1: "0.10000000000000001"}
    assert {value: cli._fmt(value) for value in spellings} == spellings


def test_random_points_give_complete_rows(tmp_path):
    # Seeded points across both phases, the critical field and the
    # isotropic and gamma = 0 edges, each run through the CLI.
    rng = np.random.default_rng(7)
    seen_tl_empty = set()
    for k in range(12):
        n = int(rng.integers(1, 1501))
        gamma = (0.0, 1.0, float(rng.uniform()))[rng.integers(3)]
        h = 1.0 if rng.integers(2) == 0 else float(rng.uniform(0.0, 3.0))
        out = tmp_path / f"point{k}.csv"
        assert cli.main(["--mode", "field-sweep", "--n", str(n), "--gamma", repr(gamma),
                         "--h", repr(h), "--out", str(out)]) == 0
        (row,) = data_rows(read_lines(out))
        assert len(row.split(",")) == 15
        f = row_fields(row)
        assert (int(f["N"]), float(f["gamma"]), float(f["h"])) == (n, gamma, h)
        assert f["status"] == "ok"
        for key in ("energy", "chi2", "xi1_2", "fisher", "qcr"):
            assert math.isfinite(float(f[key])), (n, gamma, h, key)
        assert f["xi2_2"] == "inf" or math.isfinite(float(f["xi2_2"]))
        tl_empty = h == 1.0 or (gamma == 1.0 and h < 1.0)
        assert (f["tl_chi2"] == "", f["tl_xi1_2"] == "") == (tl_empty, tl_empty), (n, gamma, h)
        assert f["phase"] == analytic.classify_phase(h).value
        seen_tl_empty.add(tl_empty)
    assert seen_tl_empty == {True, False}
