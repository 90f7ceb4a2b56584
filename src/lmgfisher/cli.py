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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

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
    h_fixed: float | None = None
    jobs: int = 1

    def __post_init__(self):
        if self.mode not in MODES:
            raise UsageError(f"mode must be one of {', '.join(MODES)}")
        if not self.n_list:
            raise UsageError("empty N list")
        if any(int(n) < 1 for n in self.n_list):
            raise UsageError("every N must be >= 1")
        if not self.h_values:
            raise UsageError("empty h list")
        if not all(math.isfinite(h) and h >= 0.0 for h in self.h_values):
            raise UsageError("every h must be finite and >= 0")
        if not 0.0 <= self.gamma <= 1.0:
            raise UsageError("gamma must lie in [0, 1]")
        if self.mode == "isotropic" and self.gamma != 1.0:
            raise UsageError("isotropic mode requires gamma = 1")
        if self.jobs < 1:
            raise UsageError("jobs must be >= 1")
        if not self.output_path:
            raise UsageError("an output path is required")


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
        m0 = analytic.isotropic_ground_m(n, h)
        closed = metrology.dicke_metrics(n, m0)
        tl_chi2, tl_xi1 = closed.chi2, closed.xi1_2
    else:
        tl_chi2, tl_xi1 = _tl_fields(h, gamma, n)
    if mode == "analytic-only":
        fields = [mode, n, gamma, h, "", None, None, None, None, None, None,
                  tl_chi2, tl_xi1, _phase_name(h), STATUS_OK]
        return ",".join(_fmt(f) for f in fields), STATUS_OK, None
    try:
        gs = solver.lmg_ground_state(ModelParams(n_spins=n, gamma=gamma, h=h))
    except solver.ConvergenceError:
        fields = [mode, n, gamma, h, "", None, None, None, None, None, None,
                  tl_chi2, tl_xi1, _phase_name(h), STATUS_CONVERGENCE]
        return ",".join(_fmt(f) for f in fields), STATUS_CONVERGENCE, None
    rep = metrology.report(gs)
    fields = [mode, n, gamma, h, gs.parity, gs.energy, rep.chi2, rep.xi1_2, rep.xi2_2,
              rep.fisher, rep.qcr, tl_chi2, tl_xi1, _phase_name(h), STATUS_OK]
    return ",".join(_fmt(f) for f in fields), STATUS_OK, rep.chi2


def _tasks(config: SweepConfig) -> list[tuple]:
    ns = sorted(set(int(n) for n in config.n_list))
    hs = sorted(set(float(h) for h in config.h_values))
    return [(config.mode, n, config.gamma, h) for n in ns for h in hs]


def _execute(config: SweepConfig):
    tasks = _tasks(config)
    if config.jobs <= 1:
        return tasks, [_row_task(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=config.jobs) as pool:
        return tasks, list(pool.map(_row_task, tasks))


def run_field_sweep(config: SweepConfig) -> tuple[list[str], list[str]]:
    """Solve a (N, h) grid at fixed gamma; rows only, no summary block."""
    _, results = _execute(config)
    return [line for line, _, _ in results], []


def run_size_scaling(config: SweepConfig) -> tuple[list[str], list[str]]:
    """Solve one fixed h across sizes; append power-law and linear fits of chi^2."""
    if config.h_fixed is None:
        raise UsageError("size-scaling requires a single fixed h (--h)")
    tasks, results = _execute(config)
    rows = [line for line, _, _ in results]
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
    return rows, summary


def run_isotropic(config: SweepConfig) -> tuple[list[str], list[str]]:
    """Solve the gamma = 1 model; closed forms fill the tl columns, the
    summary block lists level crossings and per-point (M0, E) closed forms."""
    tasks, results = _execute(config)
    rows = [line for line, _, _ in results]
    summary = ["# summary"]
    for n in sorted(set(int(n) for n in config.n_list)):
        if n < 2:
            continue
        for j, hj in enumerate(analytic.isotropic_level_crossings(n)):
            summary.append(f"# crossing,N={n},j={j},h={_fmt(hj)}")
    for _, n, _, h in tasks:
        m0 = analytic.isotropic_ground_m(n, h)
        e0 = analytic.isotropic_energy(n, m0, h)
        summary.append(f"# closed_form,N={n},h={_fmt(h)},M0={_fmt(m0)},E={_fmt(e0)}")
    return rows, summary


def run_analytic_only(config: SweepConfig) -> tuple[list[str], list[str]]:
    """Thermodynamic-limit predictions only; no eigensolves."""
    _, results = _execute(config)
    return [line for line, _, _ in results], []


_RUNNERS = {
    "field-sweep": run_field_sweep,
    "size-scaling": run_size_scaling,
    "isotropic": run_isotropic,
    "analytic-only": run_analytic_only,
}


def load_config_file(path: str) -> dict[str, str]:
    """Plain key=value lines; blank lines and '#' comments are ignored."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


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


def _floats_from(text: str, what: str) -> list[float]:
    try:
        return [float(tok) for tok in text.replace(",", " ").split()]
    except ValueError as exc:
        raise UsageError(f"bad {what} list: {text!r}") from exc


def _expand_range(start: float, stop: float, step: float) -> list[float]:
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise UsageError("h-start, h-stop and h-step must be finite")
    if step <= 0.0:
        raise UsageError("h-step must be > 0")
    if stop < start:
        raise UsageError("empty h range (h-stop < h-start)")
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return [start + k * step for k in range(count)]


def build_config(args) -> SweepConfig:
    """Merge command-line flags over an optional key=value config file."""
    file_vals = load_config_file(args.config) if args.config else {}

    def pick(flag_value, key: str, cast):
        if flag_value is not None:
            return flag_value
        if key in file_vals:
            try:
                return cast(file_vals[key])
            except ValueError as exc:
                raise UsageError(f"bad config value for {key}: {file_vals[key]!r}") from exc
        return None

    mode = pick(args.mode, "mode", str)
    if mode is None:
        raise UsageError("--mode is required")
    if mode not in MODES:
        raise UsageError(f"mode must be one of {', '.join(MODES)}")

    if args.n:
        n_list = list(args.n)
    elif "n" in file_vals:
        n_list = [int(round(v)) for v in _floats_from(file_vals["n"], "n")]
    else:
        raise UsageError("at least one --n is required")

    gamma = pick(args.gamma, "gamma", float)
    if mode == "isotropic" and gamma is None:
        gamma = 1.0
    if gamma is None:
        raise UsageError("--gamma is required")

    if args.h is not None:
        h_explicit = list(args.h)
    elif "h" in file_vals:
        h_explicit = _floats_from(file_vals["h"], "h")
    else:
        h_explicit = None
    h_start = pick(args.h_start, "h_start", float)
    h_stop = pick(args.h_stop, "h_stop", float)
    h_step = pick(args.h_step, "h_step", float)
    range_given = any(v is not None for v in (h_start, h_stop, h_step))
    if h_explicit is not None and range_given:
        raise UsageError("give either --h or --h-start/--h-stop/--h-step, not both")
    if h_explicit is not None:
        h_values = h_explicit
    elif range_given:
        if h_start is None or h_stop is None or h_step is None:
            raise UsageError("an h range needs all of --h-start, --h-stop, --h-step")
        h_values = _expand_range(h_start, h_stop, h_step)
    else:
        raise UsageError("no field values given (--h or --h-start/--h-stop/--h-step)")

    h_fixed = None
    if mode == "size-scaling":
        if len(h_values) != 1:
            raise UsageError("size-scaling requires exactly one field value")
        h_fixed = h_values[0]

    out = pick(args.out, "out", str)
    if not out:
        raise UsageError("--out is required")
    jobs = pick(args.jobs, "jobs", int)

    return SweepConfig(
        mode=mode,
        n_list=n_list,
        gamma=float(gamma),
        h_values=h_values,
        output_path=out,
        h_fixed=h_fixed,
        jobs=1 if jobs is None else int(jobs),
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
        rows, summary = _RUNNERS[config.mode](config)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    lines = [CSV_HEADER, *rows, *summary]
    _write_atomically(config.output_path, "\n".join(lines) + "\n")
    failed = any(line.rsplit(",", 1)[-1] == STATUS_CONVERGENCE for line in rows)
    return 2 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
