"""Command-line sweep driver.

usage: lmgfisher --mode {field-sweep,size-scaling,isotropic,analytic-only}
                 --n N [--n N ...] --gamma G
                 (--h H [--h H ...] | --h-start A --h-stop B --h-step S)
                 --out FILE [--config FILE] [--jobs J]
       lmgfisher -h | --help

A flag's value follows it or an '=', and any unambiguous prefix of its
name will do (--gam 0.5, --gamma=0.5).  --n and --h repeat; any other
flag keeps its last value.  --gamma is 1 by default in isotropic mode.
--config FILE reads one `key=value` flag a line (n and h take lists);
the flags given override it, and --n or --h its list.  --jobs J (default
1) computes the G grid points in this thread and up to min(J, G, C) - 1
others, C being the CPUs this process may run on, each taking the next
point that none has taken; the rows do not depend on J.

Writes CSV with the fixed header

    mode,N,gamma,h,parity,energy,chi2,xi1_2,xi2_2,fisher,qcr,tl_chi2,tl_xi1_2,phase,status

one data row per (N, h) grid point in canonical (N ascending, h
ascending) order, independent of the execution schedule.  Floats are
printed with 17 significant digits, infinities as 'inf', unavailable
fields empty.  A trailing comment block of '# ' lines carries
mode-specific summaries (scaling fits, level crossings, closed forms).

Exit codes: 0 success, 1 usage error (no file written; this includes an
output directory that is missing or not writable, checked before any
solve, and an h range of more than MAX_H_POINTS = 10^6 points) or a CSV
write that fails after the solve (no file written), 2 when any grid
point failed (its row's status field is convergence_error when the
eigensolver missed its residual gate, error for any other exception).
The CSV is renamed into place from a temporary file in the same
directory.
"""

import atexit
import gc
import getopt
import itertools
import math
import os
import sys
import threading
from collections.abc import Iterable, Iterator

from . import analytic, metrology, scaling, solver
from .spincore import ModelParams

CSV_HEADER = "mode,N,gamma,h,parity,energy,chi2,xi1_2,xi2_2,fisher,qcr,tl_chi2,tl_xi1_2,phase,status"
MODES = ("field-sweep", "size-scaling", "isotropic", "analytic-only")
STATUS_OK = "ok"
STATUS_CONVERGENCE = "convergence_error"
STATUS_ERROR = "error"
MAX_H_POINTS = 10**6  # points in one --h-start/--h-stop/--h-step range

# Interpreter shutdown runs full garbage collections over every object
# still alive, about 21k after this import: 25-45 ms of each process on a
# 2-vCPU Xeon.  Freezing the heap at exit lets them skip all of it.
# Nothing changes while main runs, and the --jobs threads are joined
# before main returns.
atexit.register(gc.freeze)


class UsageError(ValueError):
    """Bad flags or config file; exit code 1, no output file."""


def _fmt(value) -> str:
    """A CSV field: numbers to 17 digits, so inf stays inf and any N that
    passed ModelParams (N <= 1e9 < 2^53) prints as an exact integer."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return format(float(value), ".17g")


def _row_task(task) -> tuple[str, str, float | None]:
    """Compute one grid point; returns (csv_line, status, chi2 or None).

    The row is a dict keyed by CSV_HEADER's names, and the line's fields
    are filled in the header's order, a name the row lacks as an empty
    field.  A ConvergenceError gives status convergence_error, and any
    other Exception status error, with a line on stderr; the fields
    computed before it stay, the others are left empty.
    """
    mode, n, gamma, h = task
    row = {"mode": mode, "N": n, "gamma": gamma, "h": h,
           "phase": analytic.classify_phase(h).value, "status": STATUS_OK}
    try:
        try:
            tl = (metrology.dicke_metrics(n, analytic.isotropic_ground_m(n, h)) if mode == "isotropic"
                  else analytic.tl_prediction(h, gamma, n))
            row["tl_chi2"], row["tl_xi1_2"] = tl.chi2, tl.xi1_2
        except (analytic.CriticalPointError, analytic.IsotropicBrokenError):
            pass  # no thermodynamic-limit value here: both fields stay empty
        if mode != "analytic-only":
            gs = solver.lmg_ground_state(ModelParams(n_spins=n, gamma=gamma, h=h))
            rep = metrology.report(gs)
            row.update(parity=gs.parity, energy=gs.energy, chi2=rep.chi2, xi1_2=rep.xi1_2,
                       xi2_2=rep.xi2_2, fisher=rep.fisher, qcr=rep.qcr)
    except solver.ConvergenceError:
        row["status"] = STATUS_CONVERGENCE
    except Exception as exc:  # one point's failure must not abort the sweep
        row["status"] = STATUS_ERROR
        # one write per line, so that lines of concurrent threads do not splice
        sys.stderr.write(f"error: N={n}, h={_fmt(h)}: {type(exc).__name__}: {exc}\n")
    line = ",".join(_fmt(row.get(name)) for name in CSV_HEADER.split(","))
    return line, row["status"], row.get("chi2")


def _execute(tasks: list[tuple], jobs: int) -> list[tuple[str, str, float | None]]:
    """The rows of `tasks`, in order, from this thread and up to
    min(jobs, len(tasks), cpus) - 1 others, cpus being the CPUs this
    process may run on.  Each takes the next index that no thread has
    taken from one shared iterator (CPython's GIL hands them out one at a
    time); a thread that cannot be started is left out.  The solves
    release the GIL in dstevx and in numpy's loops.  An exception that
    _row_task does not catch empties the iterator, so every thread ends
    after its current point, and is raised once all are joined.
    """
    results = [None] * len(tasks)
    pending, raised, threads = iter(range(len(tasks))), [], []

    def run() -> None:
        try:
            for i in pending:
                results[i] = _row_task(tasks[i])
        except BaseException as exc:  # not one point's failure: the sweep ends
            raised.append(exc)
            for _ in pending:
                pass

    try:
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
        for _ in range(min(jobs, len(tasks), cpus) - 1):
            thread = threading.Thread(target=run)
            try:
                thread.start()
            except RuntimeError:  # no thread to be had: the running ones take the rest
                break
            threads.append(thread)
        run()
    finally:
        for _ in pending:  # points are left only if starting a thread raised
            pass
        for thread in threads:
            thread.join()
    if raised:
        raise raised[0]
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
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    argv = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        if key == "config":
            raise UsageError(f"{path}:{lineno}: a config file cannot name another one")
        values = value.replace(",", " ").split() if key in ("n", "h") else [value]
        argv += [f"--{key.replace('_', '-')}={v}" for v in values]
    return argv


_FLAGS = {"mode": str, "n": int, "gamma": float, "h": float, "h-start": float,
          "h-stop": float, "h-step": float, "out": str, "config": str, "jobs": int}


def parse_flags(argv: list[str]) -> dict:
    """The flags in `argv` by name: the list of values of --n and of --h,
    the last value of any other; {"help": True} if -h or --help is given."""
    try:
        opts, stray = getopt.gnu_getopt(argv, "h", ["help", *(f"{name}=" for name in _FLAGS)])
    except getopt.GetoptError as exc:
        raise UsageError(str(exc)) from None
    if any(flag in ("-h", "--help") for flag, _ in opts):
        return {"help": True}
    flags = {}
    for flag, text in opts:
        name, kind = flag[2:], _FLAGS[flag[2:]]
        if text.startswith("--"):  # the next flag stands where the value should: none was given
            raise UsageError(f"argument {flag}: expected one argument")
        try:
            value = kind(text)
        except ValueError:
            raise UsageError(f"argument {flag}: invalid {kind.__name__} value: {text!r}") from None
        if name == "mode" and value not in MODES:
            raise UsageError(f"argument --mode: invalid choice: {text!r} (choose from {', '.join(MODES)})")
        flags.setdefault(name, []).append(value)
    if stray:
        raise UsageError(f"unrecognized arguments: {' '.join(stray)}")
    return {name: values if name in ("n", "h") else values[-1] for name, values in flags.items()}


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


def build_config(flags: dict) -> tuple[str, list[tuple], int, str]:
    """The sweep that parse_flags()'s `flags` ask for, over the flags of
    an optional --config file, which those given override.

    Returns the mode, the grid's (mode, N, gamma, h) tasks in canonical
    order (N ascending, then h ascending), the worker count and the
    output path.
    """
    if "config" in flags:
        path = flags["config"]
        argv = _config_argv(path)  # its errors name the file already
        try:
            flags = {**parse_flags(argv), **flags}
        except UsageError as exc:
            raise UsageError(f"{path}: {exc}") from None
    mode, ns, h_list = flags.get("mode"), flags.get("n"), flags.get("h")
    if mode is None:
        raise UsageError("--mode is required")
    if not ns:
        raise UsageError("at least one --n is required")
    gamma = flags.get("gamma", 1.0 if mode == "isotropic" else None)
    if gamma is None:
        raise UsageError("--gamma is required")
    range_flags = (flags.get("h-start"), flags.get("h-stop"), flags.get("h-step"))
    range_given = any(v is not None for v in range_flags)
    if h_list is not None and range_given:
        raise UsageError("give either --h or --h-start/--h-stop/--h-step, not both")
    if h_list is not None:
        h_values = h_list
    elif range_given:
        if None in range_flags:
            raise UsageError("an h range needs all of --h-start, --h-stop, --h-step")
        h_values = _expand_range(*range_flags)
    else:
        raise UsageError("no field values given (--h or --h-start/--h-stop/--h-step)")
    if not flags.get("out"):
        raise UsageError("--out is required")
    if mode == "size-scaling" and len(h_values) != 1:
        raise UsageError("size-scaling requires exactly one field value")
    if mode == "isotropic" and gamma != 1.0:
        raise UsageError("isotropic mode requires gamma = 1")
    jobs = flags.get("jobs", 1)
    if jobs < 1:
        raise UsageError("jobs must be >= 1")
    # + 0.0 turns -0.0 into 0.0, so that the CSV never reads -0 and does
    # not depend on which of -0.0 and 0.0 a set keeps.  The model's domain
    # is ModelParams's.  Each N is checked at h = 0 and each h at the
    # largest N, which bounds h N.
    gamma += 0.0
    ns, hs = sorted(set(ns)), sorted({h + 0.0 for h in h_values})
    try:
        for n in ns:
            ModelParams(n, gamma, 0.0)
        for h in hs:
            ModelParams(ns[-1], gamma, h)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return mode, [(mode, n, gamma, h) for n in ns for h in hs], jobs, flags["out"]


def _check_output_path(path: str) -> None:
    """Usage error unless `path` names a new or regular file in an existing,
    writable directory.  The CSV is renamed over `path`, which would
    replace a FIFO or a device node."""
    directory = os.path.dirname(os.path.abspath(path))
    if os.path.exists(path) and not os.path.isfile(path):
        raise UsageError(f"output path {path} is not a regular file")
    if not os.path.isdir(directory):
        raise UsageError(f"output directory {directory} does not exist")
    if not os.access(directory, os.W_OK | os.X_OK):
        raise UsageError(f"output directory {directory} is not writable")


def _write_atomically(path: str, lines: Iterable[str]) -> None:
    """Write `lines` to a new temporary file beside `path` as they come,
    then rename it over `path`.

    Readers see either the old file or the complete new one, and a
    write that fails leaves no partial CSV behind.  The temporary file,
    `path`.<12 random hex digits>.tmp, is created with O_EXCL, so it is
    never a file already there, and gets mode 0o666 less the umask.
    """
    temporary = f"{os.path.abspath(path)}.{os.urandom(6).hex()}.tmp"
    fd = os.open(temporary, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(lines)
        os.replace(temporary, path)
    except BaseException:
        os.remove(temporary)
        raise


def main(argv=None) -> int:
    try:
        flags = parse_flags(sys.argv[1:] if argv is None else argv)
        if "help" in flags:
            print(__doc__)
            return 0
        mode, tasks, jobs, out = build_config(flags)
        _check_output_path(out)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    results = _execute(tasks, jobs)
    summarize = _SUMMARIES.get(mode)
    summary = summarize(tasks, results) if summarize else []
    lines = itertools.chain([CSV_HEADER], (line for line, _, _ in results), summary)
    try:
        _write_atomically(out, (line + "\n" for line in lines))
    except OSError as exc:
        print(f"error: cannot write {out}: {exc}", file=sys.stderr)
        return 1
    failed = any(status != STATUS_OK for _, status, _ in results)
    return 2 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
