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
solve), 2 when any grid point failed to converge (recorded in its row's
status field).  The CSV is renamed into place from a temporary file in
the same directory.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass

from . import analytic, metrology, scaling, solver
from .spincore import ModelParams

CSV_HEADER = "mode,N,gamma,h,parity,energy,chi2,xi1_2,xi2_2,fisher,qcr,tl_chi2,tl_xi1_2,phase,status"
MODES = ("field-sweep", "size-scaling", "isotropic", "analytic-only")
STATUS_OK = "ok"
STATUS_CONVERGENCE = "convergence_error"


class UsageError(ValueError):
    """Bad flags or config file; exit code 1, no output file."""


@dataclass
class SweepConfig:
    """One sweep: mode, sizes, anisotropy, field grid and output target."""

    mode: str
    n_list: list[int]
    gamma: float
    h_values: list[float]
    output_path: str
    jobs: int = 1

    def __post_init__(self):
        if not self.n_list:
            raise UsageError("empty N list")
        if not self.h_values:
            raise UsageError("empty h list")
        if self.mode == "size-scaling" and len(self.h_values) != 1:
            raise UsageError("size-scaling requires exactly one field value")
        if self.mode == "isotropic" and self.gamma != 1.0:
            raise UsageError("isotropic mode requires gamma = 1")
        if self.jobs < 1:
            raise UsageError("jobs must be >= 1")
        if not self.output_path:
            raise UsageError("an output path is required")
        # The model's domain is ModelParams's.  Each N is checked at h = 0
        # and each h at the largest N, which bounds h N.
        try:
            for n in self.n_list:
                ModelParams(n, self.gamma, 0.0)
            n_max = max(self.n_list)
            for h in self.h_values:
                ModelParams(n_max, self.gamma, h)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc


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


def _phase_name(h: float) -> str:
    return analytic.classify_phase(h).value


def _tl_fields(h: float, gamma: float, n: int):
    try:
        tl = analytic.tl_prediction(h, gamma, n)
    except (analytic.CriticalPointError, analytic.IsotropicBrokenError):
        return None, None
    return tl.chi2, tl.xi1_2


def _row_task(task) -> tuple[str, str, float | None]:
    """Compute one grid point; returns (csv_line, status, chi2 or None)."""
    mode, n, gamma, h = task
    if mode == "isotropic":
        closed = metrology.dicke_metrics(n, analytic.isotropic_ground_m(n, h))
        tl_chi2, tl_xi1 = closed.chi2, closed.xi1_2
    else:
        tl_chi2, tl_xi1 = _tl_fields(h, gamma, n)
    parity, status = "", STATUS_OK
    energy = chi2 = xi1 = xi2 = fisher = qcr = None
    if mode != "analytic-only":
        try:
            gs = solver.lmg_ground_state(ModelParams(n_spins=n, gamma=gamma, h=h))
        except solver.ConvergenceError:
            status = STATUS_CONVERGENCE
        else:
            rep = metrology.report(gs)
            parity, energy = gs.parity, gs.energy
            chi2, xi1, xi2, fisher, qcr = rep.chi2, rep.xi1_2, rep.xi2_2, rep.fisher, rep.qcr
    fields = [mode, n, gamma, h, parity, energy, chi2, xi1, xi2, fisher, qcr,
              tl_chi2, tl_xi1, _phase_name(h), status]
    return ",".join(_fmt(f) for f in fields), status, chi2


def _tasks(config: SweepConfig) -> list[tuple]:
    ns = sorted(set(int(n) for n in config.n_list))
    hs = sorted(set(float(h) for h in config.h_values))
    return [(config.mode, n, config.gamma, h) for n in ns for h in hs]


def _execute(config: SweepConfig):
    tasks = _tasks(config)
    if config.jobs <= 1:
        return tasks, [_row_task(t) for t in tasks]
    # Imported here: it costs serial runs ~20 ms of start-up and loads multiprocessing.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=config.jobs) as pool:
        return tasks, list(pool.map(_row_task, tasks))


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


def _isotropic_summary(tasks, results) -> list[str]:
    """Level crossings per N, then the per-point (M0, E) closed forms."""
    summary = ["# summary"]
    for n in dict.fromkeys(task[1] for task in tasks):
        if n < 2:
            continue
        for j, hj in enumerate(analytic.isotropic_level_crossings(n)):
            summary.append(f"# crossing,N={n},j={j},h={_fmt(hj)}")
    for _, n, _, h in tasks:
        m0 = analytic.isotropic_ground_m(n, h)
        e0 = analytic.isotropic_energy(n, m0, h)
        summary.append(f"# closed_form,N={n},h={_fmt(h)},M0={_fmt(m0)},E={_fmt(e0)}")
    return summary


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
    parser.add_argument("--jobs", type=int, help="parallel worker processes (default 1)")
    return parser


def _expand_range(start: float, stop: float, step: float) -> list[float]:
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise UsageError("h-start, h-stop and h-step must be finite")
    if step <= 0.0:
        raise UsageError("h-step must be > 0")
    if stop < start:
        raise UsageError("empty h range (h-stop < h-start)")
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
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


def build_config(args) -> SweepConfig:
    """The sweep that parsed flags ask for, over an optional --config file."""
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
    return SweepConfig(
        mode=args.mode,
        n_list=list(args.n),
        gamma=gamma,
        h_values=h_values,
        output_path=args.out,
        jobs=1 if args.jobs is None else args.jobs,
    )


def _check_output_path(path: str) -> None:
    """Usage error unless `path` names a file in an existing, writable directory."""
    directory = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        raise UsageError(f"output path {path} is a directory")
    if not os.path.isdir(directory):
        raise UsageError(f"output directory {directory} does not exist")
    if not os.access(directory, os.W_OK | os.X_OK):
        raise UsageError(f"output directory {directory} is not writable")


def _write_atomically(path: str, text: str) -> None:
    """Write a temporary file beside `path`, then rename it over `path`.

    Readers see either the old file or the complete new one, and a
    write that fails leaves no partial CSV behind.
    """
    temporary = f"{path}.{os.getpid()}.tmp"
    try:
        with open(temporary, "x", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(temporary, path)
    except BaseException:
        if os.path.exists(temporary):
            os.remove(temporary)
        raise


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = build_config(args)
        _check_output_path(config.output_path)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    tasks, results = _execute(config)
    summarize = _SUMMARIES.get(config.mode)
    summary = summarize(tasks, results) if summarize else []
    lines = [CSV_HEADER, *(line for line, _, _ in results), *summary]
    _write_atomically(config.output_path, "\n".join(lines) + "\n")
    failed = any(status == STATUS_CONVERGENCE for _, status, _ in results)
    return 2 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
