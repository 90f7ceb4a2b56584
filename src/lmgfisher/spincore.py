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
from dataclasses import dataclass

import numpy as np

EVEN = "even"
ODD = "odd"
PARITIES = (EVEN, ODD)


@dataclass(frozen=True)
class ModelParams:
    """One model instance: N spins, anisotropy 0 <= gamma <= 1, field h >= 0
    with h N finite."""

    n_spins: int
    gamma: float
    h: float

    def __post_init__(self):
        if not isinstance(self.n_spins, numbers.Integral) or self.n_spins < 1:
            raise ValueError(f"n_spins must be an integer >= 1, got {self.n_spins!r}")
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
    """One spin-flip parity block: descending M values spaced by 2."""

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
        out = self.diagonal * v
        if self.offdiagonal.size:
            out[:-1] += self.offdiagonal * v[1:]
            out[1:] += self.offdiagonal * v[:-1]
        return out


def spin_flip_count(total_spin: float, m: float) -> int:
    """Number of flipped spins S - M; validates the (S, M) pair."""
    k = total_spin - m
    ki = int(round(k))
    if abs(k - ki) > 1e-9 or ki < 0 or ki > int(round(2 * total_spin)):
        raise ValueError(f"invalid magnetic quantum number M={m} for S={total_spin}")
    return ki


def ladder_coefficient(total_spin: float, m: float) -> float:
    """Amplitude of S+|S,M> -> |S,M+1>, i.e. sqrt(S(S+1) - M(M+1))."""
    spin_flip_count(total_spin, m)
    value = total_spin * (total_spin + 1.0) - m * (m + 1.0)
    return math.sqrt(max(value, 0.0))


def double_raising_element(total_spin: float, m: np.ndarray) -> np.ndarray:
    """<S,M+2| S+^2 |S,M> = sqrt((S(S+1) - M(M+1)) (S(S+1) - (M+1)(M+2))), elementwise in M."""
    casimir = total_spin * (total_spin + 1.0)
    return np.sqrt((casimir - m * (m + 1.0)) * (casimir - (m + 1.0) * (m + 2.0)))


def parity_of(total_spin: float, m: float) -> str:
    """Spin-flip parity (-1)^(S-M) of the Dicke state |S,M>."""
    return EVEN if spin_flip_count(total_spin, m) % 2 == 0 else ODD


def build_sector(params: ModelParams, parity: str) -> DickeSector:
    """Enumerate one parity block, M descending from the largest member."""
    if parity not in PARITIES:
        raise ValueError(f"parity must be one of {PARITIES}, got {parity!r}")
    s = params.total_spin
    top = s if parity == EVEN else s - 1.0
    count = int(math.floor((top + s) / 2.0)) + 1
    m_values = top - 2.0 * np.arange(count)
    return DickeSector(total_spin=s, parity=parity, m_values=m_values)


def build_sector_matrix(params: ModelParams, sector: DickeSector) -> TridiagonalMatrix:
    """Assemble one parity block of H over the sector's descending M values.

    diagonal(M)      = -((1+gamma)/(2N)) (S(S+1) - M^2) - h M
    offdiag(M, M+2)  = -((1-gamma)/(4N)) sqrt((S(S+1)-M(M+1)) (S(S+1)-(M+1)(M+2)))

    No constant shift is added or removed; energies are those of the
    Hamiltonian itself, consistent across M and across sectors.
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
