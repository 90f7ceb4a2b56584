"""The benchmark's workloads: lists of `lmgfisher` command lines.

Each workload is a list of CLI argument vectors, run one after the other
as separate processes.  Inputs come from the workload seed only; the CLI
sees nothing but the generated arguments.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# The README "Sweeps reproducing the standard plots", verbatim.  The seed
# is ignored: these commands are the workload's specification.
README_FIGURES = [
    *(["--mode", "field-sweep", "--n", "100", "--gamma", g,
       "--h-start", "0", "--h-stop", "2", "--h-step", "0.02", "--out", f"fig1_gamma{g}.csv"]
      for g in ("0", "0.3333333333333333", "0.5")),
    ["--mode", "isotropic", "--n", "100", "--h-start", "0", "--h-stop", "2", "--h-step", "0.02",
     "--out", "fig1_isotropic.csv"],
    ["--mode", "field-sweep", "--n", "500", "--gamma", "0.5",
     "--h-start", "0.05", "--h-stop", "2", "--h-step", "0.05", "--out", "fig2_numeric.csv"],
    ["--mode", "analytic-only", "--n", "500", "--gamma", "0.5",
     "--h-start", "0.05", "--h-stop", "2", "--h-step", "0.05", "--out", "fig2_tl.csv"],
    ["--mode", "size-scaling", "--gamma", "0.5", "--h", "0.5",
     "--n", "100", "--n", "200", "--n", "300", "--n", "400", "--out", "fig3.csv"],
    ["--mode", "size-scaling", "--gamma", "0.5", "--h", "1.5",
     "--n", "100", "--n", "200", "--n", "300", "--n", "400", "--out", "fig4.csv"],
]

# Rungs of the critical ladder: a 1-2-5 sequence from 1e3 to 1e5.  Each rung
# moves by at most 1% with the seed, so the run's cost barely depends on it.
LADDER_ANCHORS = (1000, 2000, 5000, 10000, 20000, 50000, 100000)
LADDER_JITTER = 0.01

# Field bands of the phase grid: broken (parity blocks near-degenerate, the
# tie rule decides), near-critical, symmetric (tightly localised states).
PHASE_BANDS = ((0.2, 0.8), (0.95, 1.05), (1.2, 2.0))
PHASE_FIELDS_PER_BAND = 3
PHASE_SIZES = (2000, 10000)
PHASE_JOBS = 2


@dataclass(frozen=True)
class Sweep:
    """What one command asks for, read from its arguments."""

    mode: str
    ns: tuple[int, ...]
    gamma: float
    hs: tuple[float, ...]
    out: str
    jobs: int

    def grid(self) -> list[tuple[int, float]]:
        """Grid points in the canonical CSV order (N ascending, then h ascending)."""
        return [(n, h) for n in sorted(set(self.ns)) for h in sorted(set(self.hs))]


def parse_sweep(argv: list[str]) -> Sweep:
    """Read the flags the workloads use; an h range expands as start + k * step."""
    flags: dict[str, list[str]] = {}
    for flag, value in zip(argv[::2], argv[1::2]):
        flags.setdefault(flag, []).append(value)
    if "--h" in flags:
        hs = [float(v) for v in flags["--h"]]
    else:
        start, stop, step = (float(flags[f][0]) for f in ("--h-start", "--h-stop", "--h-step"))
        count = int(math.floor((stop - start) / step + 1e-9)) + 1
        hs = [start + k * step for k in range(count)]
    return Sweep(
        mode=flags["--mode"][0],
        ns=tuple(int(v) for v in flags["--n"]),
        gamma=float(flags.get("--gamma", ["1"])[0]),
        hs=tuple(hs),
        out=flags["--out"][0],
        jobs=int(flags.get("--jobs", ["1"])[0]),
    )


def serial(argv: list[str]) -> list[str]:
    """The same command with --jobs 1."""
    out = list(argv)
    if "--jobs" in out:
        out[out.index("--jobs") + 1] = "1"
    return out


def readme_figures(seed: int) -> list[list[str]]:
    return [list(argv) for argv in README_FIGURES]


def critical_ladder(seed: int) -> list[list[str]]:
    rng = random.Random(seed)
    ns = []
    for k, anchor in enumerate(LADDER_ANCHORS):
        n = round(anchor * (1.0 + rng.uniform(-LADDER_JITTER, LADDER_JITTER)))
        if n % 2 != k % 2:  # alternate even and odd N: integer and half-integer S
            n += 1
        ns.append(n)
    n_flags = [tok for n in ns for tok in ("--n", str(n))]
    return [["--mode", "size-scaling", "--gamma", "0.5", "--h", "1", *n_flags,
             "--out", "ladder.csv"]]


def phase_grid_j2(seed: int) -> list[list[str]]:
    rng = random.Random(seed)
    hs = [round(rng.uniform(lo, hi), 4) for lo, hi in PHASE_BANDS
          for _ in range(PHASE_FIELDS_PER_BAND)]
    h_flags = [tok for h in hs for tok in ("--h", repr(h))]
    n_flags = [tok for n in PHASE_SIZES for tok in ("--n", str(n))]
    return [["--mode", "field-sweep", "--gamma", "0.5", *n_flags, *h_flags,
             "--jobs", str(PHASE_JOBS), "--out", "phase_grid.csv"]]


WORKLOADS = {
    "readme-figures": readme_figures,
    "critical-ladder": critical_ladder,
    "phase-grid-j2": phase_grid_j2,
}
