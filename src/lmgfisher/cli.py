"""Command-line sweep driver.

Writes CSV with the fixed header

    mode,N,gamma,h,parity,energy,chi2,xi1_2,xi2_2,fisher,qcr,tl_chi2,tl_xi1_2,phase,status

one data row per (N, h) grid point in canonical (N ascending, h
ascending) order, independent of the execution schedule.  Floats are
printed with 17 significant digits, infinities as 'inf', unavailable
fields empty.  A trailing comment block of '# ' lines carries
mode-specific summaries (scaling fits, level crossings, closed forms).

Exit codes: 0 success, 1 usage error (no file written; this includes an
output directory that is missing or not writable, checked before any
solve, and an h range of more than MAX_H_POINTS = 10^6 points), 2 when
any grid point failed (its row's status field is convergence_error when
the eigensolver missed its residual gate, error for any other exception).
The CSV is renamed into place from a temporary file in the same
directory.

--jobs J computes the grid's points in W = min(J, points) processes:
this one and W - 1 children forked from it, each taking every W-th point
(serially where os.fork does not exist).  A child that dies gives each of its
rows status error, with only mode, N, gamma, h and phase, and one line
on stderr.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import pickle
import sys
import tempfile
from collections.abc import Iterable, Iterator

from . import analytic, metrology, scaling, solver
from .spincore import ModelParams

CSV_HEADER = "mode,N,gamma,h,parity,energy,chi2,xi1_2,xi2_2,fisher,qcr,tl_chi2,tl_xi1_2,phase,status"
MODES = ("field-sweep", "size-scaling", "isotropic", "analytic-only")
STATUS_OK = "ok"
STATUS_CONVERGENCE = "convergence_error"
STATUS_ERROR = "error"
MAX_H_POINTS = 10**6  # points in one --h-start/--h-stop/--h-step range


class UsageError(ValueError):
    """Bad flags or config file; exit code 1, no output file."""


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    value = float(value)
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return format(value, ".17g")


def _tl_fields(h: float, gamma: float, n: int):
    try:
        tl = analytic.tl_prediction(h, gamma, n)
    except (analytic.CriticalPointError, analytic.IsotropicBrokenError):
        return None, None
    return tl.chi2, tl.xi1_2


def _row(task, status: str, values=(None,) * 9) -> tuple[str, str, float | None]:
    """(csv_line, status, chi2 or None) of one grid point; `values` are the
    fields from parity to tl_xi1_2, None where unavailable."""
    mode, n, gamma, h = task
    fields = [mode, n, gamma, h, *values, analytic.classify_phase(h).value, status]
    return ",".join(_fmt(f) for f in fields), status, values[2]


def _row_task(task) -> tuple[str, str, float | None]:
    """Compute one grid point; returns (csv_line, status, chi2 or None).

    A ConvergenceError gives status convergence_error, and any other
    Exception status error, with a line on stderr; the fields computed
    before it stay, the others are left empty.
    """
    mode, n, gamma, h = task
    parity, status = None, STATUS_OK
    energy = chi2 = xi1 = xi2 = fisher = qcr = tl_chi2 = tl_xi1 = None
    try:
        if mode == "isotropic":
            closed = metrology.dicke_metrics(n, analytic.isotropic_ground_m(n, h))
            tl_chi2, tl_xi1 = closed.chi2, closed.xi1_2
        else:
            tl_chi2, tl_xi1 = _tl_fields(h, gamma, n)
        if mode != "analytic-only":
            gs = solver.lmg_ground_state(ModelParams(n_spins=n, gamma=gamma, h=h))
            rep = metrology.report(gs)
            parity, energy = gs.parity, gs.energy
            chi2, xi1, xi2, fisher, qcr = rep.chi2, rep.xi1_2, rep.xi2_2, rep.fisher, rep.qcr
    except solver.ConvergenceError:
        status = STATUS_CONVERGENCE
    except Exception as exc:  # one point's failure must not abort the sweep
        status = STATUS_ERROR
        print(f"error: N={n}, h={_fmt(h)}: {type(exc).__name__}: {exc}", file=sys.stderr)
    return _row(task, status, (parity, energy, chi2, xi1, xi2, fisher, qcr, tl_chi2, tl_xi1))


def _worker(tasks: list[tuple], write_fd: int) -> None:
    """A forked child's whole life: its rows, as one pickle, into the pipe.

    It never returns into the stack it shares with the parent: it leaves by
    os._exit, 0 once the pickle is written and 1 otherwise, so that none
    of the parent's exception handlers, atexit hooks or buffers run twice.
    """
    code = 1
    try:
        rows = [_row_task(t) for t in tasks]
        with open(write_fd, "wb") as pipe:
            pipe.write(pickle.dumps(rows, pickle.HIGHEST_PROTOCOL))
        code = 0
    finally:
        sys.stderr.flush()
        os._exit(code)


def _worker_rows(status: int, data: bytes, count: int) -> tuple[list | None, str]:
    """(rows, "") from a child's wait status and the bytes it sent, or
    (None, what went wrong)."""
    if os.WIFSIGNALED(status):
        return None, f"killed by signal {os.WTERMSIG(status)}"
    if os.WEXITSTATUS(status):
        return None, f"exited with code {os.WEXITSTATUS(status)}"
    try:
        rows = pickle.loads(data)
    except Exception:
        rows = None
    if not isinstance(rows, list) or len(rows) != count:
        return None, f"sent {len(data)} bytes that are not its rows"
    return rows, ""


def _execute(tasks: list[tuple], jobs: int) -> list[tuple[str, str, float | None]]:
    """The rows of `tasks`, in order, from W = min(jobs, len(tasks)) processes.

    This process and W - 1 children forked from it compute; process k
    takes tasks[k::W], and a child sends its rows back as one pickle
    through a pipe.  Each row of a child that dies, or sends anything but
    its rows, gets status error, and the child one line on stderr.  Every
    child is killed if still running and reaped before this returns or
    raises.  Without os.fork, and for each child that fork cannot make,
    the tasks run here, one after the other.
    """
    workers = min(jobs, len(tasks))
    if workers <= 1 or not hasattr(os, "fork"):
        return [_row_task(t) for t in tasks]
    results = [None] * len(tasks)
    pids, pipes = {}, {}  # worker k -> pid until reaped, read end until read
    sys.stdout.flush()  # a child must not inherit buffered lines and print them again
    sys.stderr.flush()
    try:
        for k in range(1, workers):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to be had: this one takes the rest
                os.close(read_fd)
                os.close(write_fd)
                break
            if pid == 0:
                _worker(tasks[k::workers], write_fd)
            os.close(write_fd)
            pids[k], pipes[k] = pid, read_fd
        for k in range(workers):
            if k not in pids:
                results[k::workers] = [_row_task(t) for t in tasks[k::workers]]
        for k in list(pids):
            with open(pipes.pop(k), "rb") as pipe:
                data = pipe.read()
            status = os.waitpid(pids.pop(k), 0)[1]
            owned = tasks[k::workers]
            rows, failure = _worker_rows(status, data, len(owned))
            if rows is None:
                print(f"error: worker {k} ({len(owned)} rows) {failure}", file=sys.stderr)
                rows = [_row(t, STATUS_ERROR) for t in owned]
            results[k::workers] = rows
    finally:
        for read_fd in pipes.values():
            os.close(read_fd)
        if pids:  # only after an exception; signal is not otherwise imported
            import signal

            for pid in pids.values():
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return results


def _size_scaling_summary(tasks, results) -> list[str]:
    """Power-law and linear fits of chi^2 across sizes at the one fixed h."""
    points = [(task[1], chi2) for task, (_, status, chi2) in zip(tasks, results)
              if status == STATUS_OK and chi2 is not None and chi2 > 0.0]
    summary = ["# summary"]
    if len(points) >= 3:
        fit = scaling.fit_power_law(points)
        summary.append(
            "# power_law_fit,quantity=chi2"
            f",exponent={_fmt(fit.exponent)},amplitude={_fmt(fit.amplitude)}"
            f",r_squared={_fmt(fit.r_squared)},points_used={fit.points_used}"
        )
    if len(points) >= 2:
        slope, intercept, r_squared = scaling.fit_linear([(n, 1.0 / c) for n, c in points])
        summary.append(
            "# linear_fit,quantity=inverse_chi2"
            f",slope={_fmt(slope)},intercept={_fmt(intercept)},r_squared={_fmt(r_squared)}"
        )
    return summary


def _isotropic_summary(tasks, results) -> Iterator[str]:
    """Level crossings per N, then the per-point (M0, E) closed forms, one
    line at a time: there are N/2 crossings per N."""
    yield "# summary"
    for n in dict.fromkeys(task[1] for task in tasks):
        if n < 2:
            continue
        for j, hj in enumerate(analytic.isotropic_level_crossings(n)):
            yield f"# crossing,N={n},j={j},h={_fmt(hj)}"
    for _, n, _, h in tasks:
        m0 = analytic.isotropic_ground_m(n, h)
        e0 = analytic.isotropic_energy(n, m0, h)
        yield f"# closed_form,N={n},h={_fmt(h)},M0={_fmt(m0)},E={_fmt(e0)}"


# Modes with a '# ' summary block after the rows; the others have none.
_SUMMARIES = {
    "size-scaling": _size_scaling_summary,
    "isotropic": _isotropic_summary,
}


def _config_argv(path: str) -> list[str]:
    """The flags a config file stands for: `key=value` becomes `--key=value`.

    Underscores in a key become dashes, and the values of `n` and `h` split
    on commas and spaces into one flag each.  Blank lines and '#' comments
    are ignored.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    argv = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        values = value.replace(",", " ").split() if key in ("n", "h") else [value]
        argv += [f"--{key.replace('_', '-')}={v}" for v in values]
    return argv


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lmgfisher", description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=MODES)
    parser.add_argument("--n", type=int, action="append", help="system size (repeatable)")
    parser.add_argument("--gamma", type=float)
    parser.add_argument("--h", type=float, action="append", dest="h",
                        help="explicit field value (repeatable)")
    parser.add_argument("--h-start", type=float)
    parser.add_argument("--h-stop", type=float)
    parser.add_argument("--h-step", type=float)
    parser.add_argument("--out", help="output CSV path")
    parser.add_argument("--config", help="key=value config file; flags override it")
    parser.add_argument("--jobs", type=int,
                        help="processes computing the grid, this one included (default 1); "
                             "the output does not depend on it")
    return parser


def _expand_range(start: float, stop: float, step: float) -> list[float]:
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise UsageError("h-start, h-stop and h-step must be finite")
    if step <= 0.0:
        raise UsageError("h-step must be > 0")
    if stop < start:
        raise UsageError("empty h range (h-stop < h-start)")
    steps = (stop - start) / step
    count = math.floor(steps + 1e-9) + 1 if math.isfinite(steps) else math.inf
    if count > MAX_H_POINTS:  # checked before the list is built
        raise UsageError(f"the h range has more than {MAX_H_POINTS} points")
    return [start + k * step for k in range(count)]


def _over_config_file(args) -> argparse.Namespace:
    """`args` over the values of its --config file, which build_parser() reads as flags.

    Every flag given overrides the file's value; a repeated flag's list
    replaces the file's list.
    """
    argv = _config_argv(args.config)
    try:
        merged = build_parser().parse_args(argv)
    except UsageError as exc:
        raise UsageError(f"{args.config}: {exc}") from exc
    for key, value in vars(args).items():
        if value is not None:
            setattr(merged, key, value)
    return merged


def build_config(args) -> tuple[str, list[tuple], int, str]:
    """The sweep that parsed flags ask for, over an optional --config file.

    Returns the mode, the grid's (mode, N, gamma, h) tasks in canonical
    order (N ascending, then h ascending), the worker count and the
    output path.
    """
    if args.config is not None:
        args = _over_config_file(args)
    if args.mode is None:
        raise UsageError("--mode is required")
    if not args.n:
        raise UsageError("at least one --n is required")
    gamma = 1.0 if args.gamma is None and args.mode == "isotropic" else args.gamma
    if gamma is None:
        raise UsageError("--gamma is required")
    range_flags = (args.h_start, args.h_stop, args.h_step)
    range_given = any(v is not None for v in range_flags)
    if args.h is not None and range_given:
        raise UsageError("give either --h or --h-start/--h-stop/--h-step, not both")
    if args.h is not None:
        h_values = list(args.h)
    elif range_given:
        if None in range_flags:
            raise UsageError("an h range needs all of --h-start, --h-stop, --h-step")
        h_values = _expand_range(*range_flags)
    else:
        raise UsageError("no field values given (--h or --h-start/--h-stop/--h-step)")
    if not args.out:
        raise UsageError("--out is required")
    if args.mode == "size-scaling" and len(h_values) != 1:
        raise UsageError("size-scaling requires exactly one field value")
    if args.mode == "isotropic" and gamma != 1.0:
        raise UsageError("isotropic mode requires gamma = 1")
    jobs = 1 if args.jobs is None else args.jobs
    if jobs < 1:
        raise UsageError("jobs must be >= 1")
    # The model's domain is ModelParams's.  Each N is checked at h = 0
    # and each h at the largest N, which bounds h N.
    ns, hs = sorted(set(args.n)), sorted(set(h_values))
    try:
        for n in ns:
            ModelParams(n, gamma, 0.0)
        for h in hs:
            ModelParams(ns[-1], gamma, h)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return args.mode, [(args.mode, n, gamma, h) for n in ns for h in hs], jobs, args.out


def _check_output_path(path: str) -> None:
    """Usage error unless `path` names a file in an existing, writable directory."""
    directory = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        raise UsageError(f"output path {path} is a directory")
    if not os.path.isdir(directory):
        raise UsageError(f"output directory {directory} does not exist")
    if not os.access(directory, os.W_OK | os.X_OK):
        raise UsageError(f"output directory {directory} is not writable")


def _write_atomically(path: str, lines: Iterable[str]) -> None:
    """Write `lines` to a new temporary file beside `path` as they come,
    then rename it over `path`.

    Readers see either the old file or the complete new one, and a
    write that fails leaves no partial CSV behind.  The file gets the
    mode that open() would give it, not mkstemp's 0600.
    """
    fd, temporary = tempfile.mkstemp(prefix=os.path.basename(path) + ".", suffix=".tmp",
                                     dir=os.path.dirname(os.path.abspath(path)))
    try:
        with open(fd, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(lines)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(temporary, 0o666 & ~umask)
        os.replace(temporary, path)
    except BaseException:
        os.remove(temporary)
        raise


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        mode, tasks, jobs, out = build_config(args)
        _check_output_path(out)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    results = _execute(tasks, jobs)
    summarize = _SUMMARIES.get(mode)
    summary = summarize(tasks, results) if summarize else []
    lines = itertools.chain([CSV_HEADER], (line for line, _, _ in results), summary)
    _write_atomically(out, (line + "\n" for line in lines))
    failed = any(status != STATUS_OK for _, status, _ in results)
    return 2 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
