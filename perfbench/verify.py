"""Output check: every CSV row against an independent reference.

Nothing here imports lmgfisher.  Each parity block is assembled from the
ladder-operator matrix elements of

    H = -(1/N) [(1+gamma)/4 (S+S- + S-S+) + (1-gamma)/4 (S+^2 + S-^2)] - h S_z

and its lowest eigenpair comes from numpy.linalg.eigh on the dense block
(d <= DENSE_CUT) or scipy.linalg.eigh_tridiagonal above.  The parity is
the lower block, even on ties within 1e-12 relative, as the CLI promises.
Energy, chi2 and xi1_2 must match within RTOL; the thermodynamic-limit
and Dicke columns are checked against their closed forms.  RTOL admits
any LAPACK-grade solver (3e-12 relative apart for N <= 2e4; xi1_2 at the
critical point, N = 1e5, loses digits to cancellation and sits 4e-10
apart) but not a wrong state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from workloads import Sweep

HEADER = "mode,N,gamma,h,parity,energy,chi2,xi1_2,xi2_2,fisher,qcr,tl_chi2,tl_xi1_2,phase,status"
DENSE_CUT = 256
RTOL = 1e-8            # energy, chi2, xi1_2 and the scaling fits
CLOSED_RTOL = 1e-12    # closed forms evaluated the same way on both sides
TIE_RTOL = 1e-12       # the CLI's even-parity tie rule
TIE_AMBIGUITY = 0.05   # a gap within 5% of the tie threshold admits either parity


def fmt(value: float) -> str:
    """The CLI's float format: 17 significant digits."""
    return format(value, ".17g")


def close(text: str, ref: float, rtol: float) -> bool:
    try:
        value = float(text)
    except ValueError:
        return False
    return abs(value - ref) <= rtol * max(abs(ref), 1e-300)


@dataclass(frozen=True)
class Reference:
    """Lowest state of one model instance, with the metrology it implies."""

    energy: float
    chi2: float
    xi1_2: float
    parities: tuple[str, ...]  # the parities an exact solver may report


def _block_ground(n: int, gamma: float, h: float, top: float) -> tuple[float, np.ndarray, np.ndarray]:
    """Lowest eigenpair of the block of M = top, top - 2, ... >= -S."""
    s = n / 2.0
    m = np.arange(top, -s - 1e-9, -2.0)
    diag = -((1.0 + gamma) / (2.0 * n)) * (s * (s + 1.0) - m * m) - h * m
    lo = m[1:]  # <lo + 2| S+^2 |lo>
    raise2 = np.sqrt((s - lo) * (s + lo + 1.0) * (s - lo - 1.0) * (s + lo + 2.0))
    off = -((1.0 - gamma) / (4.0 * n)) * raise2
    if m.size <= DENSE_CUT:
        dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        w, v = np.linalg.eigh(dense)
        return float(w[0]), v[:, 0], m
    w, v = eigh_tridiagonal(diag, off, select="i", select_range=(0, 0))
    return float(w[0]), v[:, 0], m


def _metrology(n: int, vec: np.ndarray, m: np.ndarray) -> tuple[float, float]:
    """chi2 = N / (4 max Var S_perp) and xi1^2 = 4 min Var S_perp / N.

    <S_x^2> + <S_y^2> = S(S+1) - <S_z^2> and <S_x^2> - <S_y^2> = <S+^2>
    (real amplitudes); first transverse moments vanish in a parity block.
    """
    s = n / 2.0
    p = vec * vec
    total = s * (s + 1.0) - float(p @ (m * m))
    lo = m[1:]
    raise2 = np.sqrt((s - lo) * (s + lo + 1.0) * (s - lo - 1.0) * (s + lo + 2.0))
    diff = float(np.sum(vec[:-1] * vec[1:] * raise2))
    vmax = 0.5 * (total + abs(diff))
    vmin = 0.5 * (total - abs(diff))
    return n / (4.0 * vmax), 4.0 * vmin / n


class References:
    """Reference states, computed once per (N, gamma, h) and reused across passes."""

    def __init__(self):
        self._cache: dict[tuple[int, float, float], dict[str, Reference]] = {}

    def get(self, n: int, gamma: float, h: float) -> dict[str, Reference]:
        """Per-parity references; the key 'ground' holds the expected ground state."""
        key = (n, gamma, h)
        if key not in self._cache:
            self._cache[key] = self._solve(n, gamma, h)
        return self._cache[key]

    @staticmethod
    def _solve(n, gamma, h):
        s = n / 2.0
        solved = {}
        for parity, top in (("even", s), ("odd", s - 1.0)):
            if top < -s:
                continue
            energy, vec, m = _block_ground(n, gamma, h, top)
            solved[parity] = (energy, *_metrology(n, vec, m))
        e_even = solved["even"][0]
        parities = ("even",)
        if "odd" in solved:
            e_odd = solved["odd"][0]
            tie = TIE_RTOL * max(1.0, abs(e_even), abs(e_odd))
            gap = e_even - e_odd
            if abs(gap - tie) <= TIE_AMBIGUITY * tie:
                parities = ("even", "odd")
            elif gap > tie:
                parities = ("odd",)
        out = {p: Reference(*solved[p], parities=parities) for p in solved}
        out["ground"] = out[parities[0]]
        return out


def tl_columns(mode: str, n: int, gamma: float, h: float) -> tuple[str, str]:
    """Expected tl_chi2, tl_xi1_2 cells."""
    if mode == "isotropic":
        chi2, xi1 = _dicke(n, isotropic_m0(n, h))
        return fmt(chi2), fmt(xi1)
    if h == 1.0 or (h < 1.0 and gamma == 1.0):
        return "", ""
    if h > 1.0:
        value = math.sqrt((h - 1.0) / (h - gamma))
        return fmt(value), fmt(value)
    one_h2 = 1.0 - h * h
    return fmt(1.0 / ((n + 2.0) * one_h2)), fmt(math.sqrt(one_h2 / (1.0 - gamma)))


def isotropic_m0(n: int, h: float) -> float:
    """Isotropic ground-state M: N/2 - round(N(1-h)/2), half-way rounding up in M."""
    s = n / 2.0
    return s if h >= 1.0 else s - float(math.ceil(n * (1.0 - h) / 2.0 - 0.5))


def _dicke(n: int, m: float) -> tuple[float, float]:
    s = n / 2.0
    variance = 0.5 * (s * s + s - m * m)
    return n / (4.0 * variance), 4.0 * variance / n


def phase_name(h: float) -> str:
    return "symmetric" if h > 1.0 else "critical" if h == 1.0 else "broken"


def _row_ok(cells: list[str], sweep: Sweep, n: int, h: float, refs: References) -> bool:
    if len(cells) != 15:
        return False
    mode, n_c, gamma_c, h_c, parity, energy, chi2, xi1, _xi2, _fisher, _qcr, tl_chi2, tl_xi1, phase, status = cells
    if (mode, n_c, gamma_c, h_c, phase, status) != (
            sweep.mode, str(n), fmt(sweep.gamma), fmt(h), phase_name(h), "ok"):
        return False
    exp_chi2, exp_xi1 = tl_columns(sweep.mode, n, sweep.gamma, h)
    for cell, want in ((tl_chi2, exp_chi2), (tl_xi1, exp_xi1)):
        if (cell == "") != (want == "") or (want and not close(cell, float(want), CLOSED_RTOL)):
            return False
    if sweep.mode == "analytic-only":
        return cells[4:11] == [""] * 7
    ref = refs.get(n, sweep.gamma, h)
    if parity not in ref["ground"].parities:
        return False
    r = ref[parity]
    return close(energy, r.energy, RTOL) and close(chi2, r.chi2, RTOL) and close(xi1, r.xi1_2, RTOL)


def _summary_ok(sweep: Sweep, summary: list[str], refs: References) -> bool:
    if sweep.mode in ("field-sweep", "analytic-only"):
        return summary == []
    if sweep.mode == "size-scaling":
        return _fits_ok(sweep, summary, refs)
    return _isotropic_summary_ok(sweep, summary)


def _fields(line: str) -> tuple[str, dict[str, str]]:
    head, *pairs = line[2:].split(",")
    return head, dict(p.split("=", 1) for p in pairs)


def _fits_ok(sweep, summary, refs) -> bool:
    h = sweep.hs[0]
    points = [(n, refs.get(n, sweep.gamma, h)["ground"].chi2) for n in sorted(set(sweep.ns))]
    if summary[:1] != ["# summary"] or len(summary) != 1 + (len(points) >= 3) + (len(points) >= 2):
        return False
    x = np.array([p[0] for p in points], dtype=float)
    y = np.array([p[1] for p in points])
    inv = 1.0 / y
    expected = []  # (summary line head, [(key, value, scale)])
    if len(points) >= 3:
        slope, intercept = np.polyfit(np.log(x), np.log(y), 1)
        amplitude = math.exp(intercept)
        expected.append(("power_law_fit", [("exponent", slope, abs(slope)),
                                           ("amplitude", amplitude, amplitude)]))
    if len(points) >= 2:
        slope, intercept = np.polyfit(x, inv, 1)
        # the intercept is judged on the scale of the fitted values
        expected.append(("linear_fit", [("slope", slope, abs(slope)),
                                        ("intercept", intercept, float(np.max(inv)))]))
    for line, (name, values) in zip(summary[1:], expected):
        head, got = _fields(line)
        if head != name:
            return False
        for key, want, scale in values:
            try:
                value = float(got[key])
            except (KeyError, ValueError):
                return False
            if abs(value - want) > RTOL * scale:
                return False
    return True


def _isotropic_summary_ok(sweep, summary) -> bool:
    expected = ["summary"]
    for n in sorted(set(sweep.ns)):
        if n >= 2:
            crossings = (1.0 - (2 * j + 1) / n for j in range(n))
            expected += [("crossing", h) for h in crossings if h > 0.0]
    for n, h in sweep.grid():
        m0 = isotropic_m0(n, h)
        expected.append(("closed_form", m0, (2.0 / n) * (m0 - h * n / 2.0) ** 2 - (n / 2.0) * (1.0 + h * h)))
    if len(summary) != len(expected) or summary[0] != "# summary":
        return False
    for line, want in zip(summary[1:], expected[1:]):
        head, got = _fields(line)
        if head != want[0]:
            return False
        if head == "crossing" and not close(got.get("h", ""), want[1], CLOSED_RTOL):
            return False
        if head == "closed_form" and not (close(got.get("M0", ""), want[1], 0.0)
                                          and close(got.get("E", ""), want[2], CLOSED_RTOL)):
            return False
    return True


def check_output(sweep: Sweep, exit_code: int | None, text: str | None, refs: References,
                 same_as: str | None = None) -> int:
    """Number of failed grid points in one command's output.

    A wrong exit code, header, row count, row order or summary fails every
    point of the command.  With `same_as`, each data row must also equal
    that text's row byte for byte (the --jobs determinism check).
    """
    grid = sweep.grid()
    if text is None or exit_code not in (0, 2):
        return len(grid)
    lines = text.split("\n")
    if lines[-1] != "" or lines[0] != HEADER:
        return len(grid)
    body = lines[1:-1]
    rows = [ln for ln in body if not ln.startswith("# ")]
    summary = body[len(rows):]
    if len(rows) != len(grid) or any(not ln.startswith("# ") for ln in summary):
        return len(grid)
    any_bad_status = any(ln.rsplit(",", 1)[-1] != "ok" for ln in rows)
    if (exit_code == 2) != any_bad_status or not _summary_ok(sweep, summary, refs):
        return len(grid)
    other = None
    if same_as is not None:
        other = same_as.split("\n")[1:1 + len(grid)]
    failed = 0
    for i, (line, (n, h)) in enumerate(zip(rows, grid)):
        ok = _row_ok(line.split(","), sweep, n, h, refs)
        if other is not None and (i >= len(other) or other[i] != line):
            ok = False
        failed += not ok
    return failed
