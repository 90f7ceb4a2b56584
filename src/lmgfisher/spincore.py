"""Dicke-basis construction of the collective-spin Hamiltonian

    H = -(1/N) (S_x^2 + gamma S_y^2) - h S_z

restricted to the maximal-spin sector S = N/2.  H commutes with the
spin-flip operator prod_i sigma_z^i, whose eigenvalue (-1)^(S-M) splits
the Dicke ladder into two uncoupled M-sublattices of spacing 2.  With

    S_x^2 + gamma S_y^2 = (1+gamma)/4 (S+ S- + S- S+) + (1-gamma)/4 (S+^2 + S-^2)

each parity block is real symmetric tridiagonal in the Dicke basis.
M values are stored strictly descending, so the field-polarized state
|S, S> is always the first coordinate of the even block.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

EVEN = "even"
ODD = "odd"
PARITIES = (EVEN, ODD)
# Largest N that ModelParams accepts.  The solver keeps only a window of
# rows, so memory does not bound N; accuracy does.  Row M = top - 2i must
# be exact in floats (N < 2^53), and the O(N) diagonal entries round with
# an absolute error of about eps N, which moves the h = 1 state by about
# eps N^(4/3): 1e-6 relative at N = 1e9.
MAX_N_SPINS = 10**9


def check_n_spins(n_spins) -> None:
    """The domain of N for the model and its closed forms: an integer from 1
    to the float maximum, since S = N/2 and h N are computed in floats."""
    if not isinstance(n_spins, numbers.Integral) or not 1 <= n_spins <= sys.float_info.max:
        raise ValueError(f"n_spins must be an integer from 1 to the float maximum, got {n_spins!r}")


@dataclass(frozen=True)
class ModelParams:
    """One model instance: 1 <= N <= MAX_N_SPINS spins, anisotropy
    0 <= gamma <= 1, field h >= 0 with h N finite."""

    n_spins: int
    gamma: float
    h: float

    def __post_init__(self):
        check_n_spins(self.n_spins)
        if self.n_spins > MAX_N_SPINS:
            raise ValueError(f"n_spins must be at most {MAX_N_SPINS}, got {self.n_spins}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {self.gamma}")
        # The block diagonal spans about h N (-h M for M in [-S, S]); past
        # the float range the solver's shifts overflow.
        if not (self.h >= 0.0 and math.isfinite(self.h * float(self.n_spins))):
            raise ValueError(f"h must be >= 0 with h N finite, got h = {self.h} at N = {self.n_spins}")

    @property
    def total_spin(self) -> float:
        return self.n_spins / 2.0


@dataclass(frozen=True)
class DickeSector:
    """One spin-flip parity block, or rows [lo, hi) of it: descending M
    values spaced by 2."""

    total_spin: float
    parity: str
    m_values: np.ndarray

    @property
    def dimension(self) -> int:
        return int(self.m_values.size)


@dataclass(frozen=True)
class TridiagonalMatrix:
    """Real symmetric tridiagonal matrix: main diagonal and one shared off-diagonal."""

    diagonal: np.ndarray
    offdiagonal: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.diagonal, dtype=float)
        e = np.asarray(self.offdiagonal, dtype=float)
        object.__setattr__(self, "diagonal", d)
        object.__setattr__(self, "offdiagonal", e)
        if d.ndim != 1 or d.size < 1:
            raise ValueError("diagonal must be a vector of length >= 1")
        if e.shape != (d.size - 1,):
            raise ValueError("offdiagonal must have length len(diagonal) - 1")
        if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e))):
            raise ValueError("matrix entries must be finite")

    @property
    def dimension(self) -> int:
        return int(self.diagonal.size)

    def to_dense(self) -> np.ndarray:
        dense = np.diag(self.diagonal)
        if self.offdiagonal.size:
            dense += np.diag(self.offdiagonal, 1) + np.diag(self.offdiagonal, -1)
        return dense

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return tridiagonal_matvec(self.diagonal, self.offdiagonal, v)


def tridiagonal_matvec(diagonal: np.ndarray, offdiagonal: np.ndarray, v: np.ndarray) -> np.ndarray:
    """T v for the tridiagonal T with these entries, taken as given (no checks)."""
    out = diagonal * v
    if offdiagonal.size:
        out[:-1] += offdiagonal * v[1:]
        out[1:] += offdiagonal * v[:-1]
    return out


def spin_flip_count(total_spin: float, m: float) -> int:
    """Number of flipped spins S - M; validates the (S, M) pair."""
    k = total_spin - m
    if not math.isfinite(k):
        raise ValueError(f"invalid magnetic quantum number M={m} for S={total_spin}")
    ki = int(round(k))
    if abs(k - ki) > 1e-9 or ki < 0 or ki > int(round(2 * total_spin)):
        raise ValueError(f"invalid magnetic quantum number M={m} for S={total_spin}")
    return ki


def double_raising_element(total_spin: float, m: np.ndarray) -> np.ndarray:
    """<S,M+2| S+^2 |S,M> = sqrt((S(S+1) - M(M+1)) (S(S+1) - (M+1)(M+2))), elementwise in M."""
    casimir = total_spin * (total_spin + 1.0)
    return np.sqrt((casimir - m * (m + 1.0)) * (casimir - (m + 1.0) * (m + 2.0)))


def parity_of(total_spin: float, m: float) -> str:
    """Spin-flip parity (-1)^(S-M) of the Dicke state |S,M>."""
    return EVEN if spin_flip_count(total_spin, m) % 2 == 0 else ODD


def sector_dimension(params: ModelParams, parity: str) -> int:
    """Number of rows of one parity block: N//2 + 1 even and (N+1)//2 odd
    rows (M = S, S-2, ... and M = S-1, S-3, ... down to -S)."""
    if parity not in PARITIES:
        raise ValueError(f"parity must be one of {PARITIES}, got {parity!r}")
    n = params.n_spins
    return n // 2 + 1 if parity == EVEN else (n + 1) // 2


def block_top(params: ModelParams, parity: str) -> float:
    """M of a block's first row: S for even parity, S - 1 for odd."""
    return params.total_spin - (0.0 if parity == EVEN else 1.0)


def sector_row(params: ModelParams, parity: str, m: float) -> int:
    """The row of one parity block whose M is nearest m, the upper row
    (larger M) on a tie; m beyond the block gives its end row."""
    count = sector_dimension(params, parity)
    return int(min(max(math.ceil((block_top(params, parity) - m) / 2.0 - 0.5), 0), count - 1))


def build_sector(params: ModelParams, parity: str, lo: int = 0, hi: int | None = None) -> DickeSector:
    """Enumerate rows [lo, hi) of one parity block (by default all of it),
    M descending from the block's largest member: row i holds M = top - 2i."""
    count = sector_dimension(params, parity)
    if hi is None:
        hi = count
    if not 0 <= lo < hi <= count:
        raise ValueError(f"rows [{lo}, {hi}) do not lie in a block of {count} rows")
    m_values = block_top(params, parity) - 2.0 * np.arange(lo, hi)
    return DickeSector(total_spin=params.total_spin, parity=parity, m_values=m_values)


def build_sector_matrix(params: ModelParams, sector: DickeSector) -> TridiagonalMatrix:
    """Assemble the rows of one parity block over the sector's descending M values.

    diagonal(M)      = -((1+gamma)/(2N)) (S(S+1) - M^2) - h M
    offdiag(M, M+2)  = -((1-gamma)/(4N)) sqrt((S(S+1)-M(M+1)) (S(S+1)-(M+1)(M+2)))

    No constant shift is added or removed; energies are those of the
    Hamiltonian itself, consistent across M and across sectors.  Every
    entry depends on its own M alone, so a sector of rows [lo, hi) gives
    exactly the entries that the whole block has in those rows.
    """
    if sector.total_spin != params.total_spin:
        raise ValueError("sector was built for different model parameters")
    n = params.n_spins
    s = params.total_spin
    m = sector.m_values
    casimir = s * (s + 1.0)
    diagonal = -((1.0 + params.gamma) / (2.0 * n)) * (casimir - m * m) - params.h * m
    b = double_raising_element(s, m[1:])  # m[1:] is the smaller M of each pair (M, M+2)
    offdiagonal = -((1.0 - params.gamma) / (4.0 * n)) * b
    return TridiagonalMatrix(diagonal=diagonal, offdiagonal=offdiagonal)
