"""Closed-form results for the collective-spin model.

Covers the exactly solvable isotropic limit (gamma = 1, diagonal in the
Dicke basis), the bosonic-fluctuation (Holstein-Primakoff + Bogoliubov)
moments in the thermodynamic limit for gamma < 1, the per-phase
chi^2 / xi1^2 parameters, and the advertised finite-size scaling
exponents at the critical field h = 1.
"""

import enum
import math
from collections.abc import Iterator
from typing import NamedTuple

from .spincore import model_fields, spin_flip_count


class Phase(enum.Enum):
    SYMMETRIC = "symmetric"
    BROKEN = "broken"
    CRITICAL = "critical"


class CriticalPointError(ValueError):
    """The requested closed form diverges at the critical point."""


class IsotropicBrokenError(ValueError):
    """gamma = 1, h < 1 has no fluctuation expansion; the Dicke-state
    closed forms apply there instead."""


def classify_phase(h: float) -> Phase:
    """symmetric for h > 1, critical at h = 1, broken for 0 <= h < 1."""
    h = model_fields(h=h)[2]
    if h > 1.0:
        return Phase.SYMMETRIC
    if h == 1.0:
        return Phase.CRITICAL
    return Phase.BROKEN


def isotropic_energy(n_spins: int, m: float, h: float) -> float:
    """Twice the energy of |S = N/2, M> in the isotropic model, plus one:

        E(M, h) = 2M^2/N - 2hM - N/2 = 2 <H> + 1.

    At gamma = 1 the model's H = -(S^2 - S_z^2)/N - h S_z is diagonal with
    <H> = (M^2 - S(S+1))/N - h M, so E(M, h) orders the Dicke states as H
    does, and E(M, h) = E(M', h) exactly where their energies cross.  No
    term grows as h^2, so E is finite wherever h N is; at h >= 1 the
    ground state M = N/2 gives E = -h N.
    """
    n_spins, _, h = model_fields(n_spins, h=h)
    s = n_spins / 2.0
    m = s - spin_flip_count(s, m)
    return m * (2.0 * m / n_spins) - 2.0 * h * m - n_spins / 2.0


def isotropic_ground_m(n_spins: int, h: float) -> float:
    """Ground-state magnetization M0 of the isotropic model.

    M0 = N/2 for h >= 1 and N/2 - round(N(1-h)/2) below; exact half-way
    arguments (level crossings) round toward the larger M0.
    """
    n_spins, _, h = model_fields(n_spins, h=h)
    s = n_spins / 2.0
    if h >= 1.0:
        return s
    x = n_spins * (1.0 - h) / 2.0
    return s - float(math.ceil(x - 0.5))


def isotropic_level_crossings(n_spins: int) -> Iterator[float]:
    """Fields h_j = 1 - (2j+1)/N > 0 where |S, S-j> and |S, S-j-1> cross,
    for j = 0 ... N//2 - 1, made one at a time; N is checked at the call."""
    n_spins = model_fields(n_spins)[0]
    return (1.0 - (2 * j + 1) / n_spins for j in range(n_spins // 2))


class TlPrediction(NamedTuple):
    """Thermodynamic-limit moments and parameters at one (h, gamma, N);
    in the broken phase chi2 is the 1/((N+2)(1-h^2)) form."""

    sx2: float
    sy2: float
    chi2: float
    xi1_2: float


def tl_prediction(h: float, gamma: float, n_spins: int) -> TlPrediction:
    """Closed-form transverse moments and metrology parameters.

    Symmetric phase (h > 1):

        <S_x^2> = (N/4) sqrt((h-gamma)/(h-1)),   <S_y^2> = (N/4) sqrt((h-1)/(h-gamma)),
        chi2 = xi1^2 = sqrt((h-1)/(h-gamma)).

    Broken phase (h < 1, gamma < 1):

        <S_x^2> = (N^2/4 + N/2)(1-h^2)
                  + (N/4) [(1-gamma) h^2 - (2-h^2-gamma)(1-h^2)] / sqrt((1-h^2)(1-gamma)),
        <S_y^2> = (N/4) sqrt((1-h^2)/(1-gamma)),
        xi1^2 = sqrt((1-h^2)/(1-gamma)),   chi2 = 1/((N+2)(1-h^2)).
    """
    n_spins, gamma, h = model_fields(n_spins, gamma, h)
    if h == 1.0:
        raise CriticalPointError("thermodynamic-limit moments diverge at h = 1")
    n = float(n_spins)
    if h > 1.0:
        ratio = (h - gamma) / (h - 1.0)
        value = math.sqrt((h - 1.0) / (h - gamma))
        return TlPrediction(
            sx2=0.25 * n * math.sqrt(ratio),
            sy2=0.25 * n * value,
            chi2=value,
            xi1_2=value,
        )
    if gamma == 1.0:
        raise IsotropicBrokenError(
            "gamma = 1, h < 1: zero mode in the fluctuation expansion; use the Dicke closed forms"
        )
    one_h2 = 1.0 - h * h
    one_g = 1.0 - gamma
    correction = ((1.0 - gamma) * h * h - (2.0 - h * h - gamma) * one_h2) / math.sqrt(one_h2 * one_g)
    return TlPrediction(
        sx2=(0.25 * n * n + 0.5 * n) * one_h2 + 0.25 * n * correction,
        sy2=0.25 * n * math.sqrt(one_h2 / one_g),
        chi2=1.0 / ((n + 2.0) * one_h2),
        xi1_2=math.sqrt(one_h2 / one_g),
    )


class CriticalExponents(NamedTuple):
    """Finite-size laws advertised at h = 1: chi^2 and xi^2 decay with
    exponent -2/3, the phase-uncertainty bound with -5/6, while the
    moment ratios 4<S_x^2>/N^2 and 4<S_y^2>/N^2 decay with -2/3 and
    -4/3."""

    chi2_exponent: float
    xi2_exponent: float
    qcr_exponent: float
    sx2_moment_exponent: float
    sy2_moment_exponent: float


def critical_scaling_prediction() -> CriticalExponents:
    """Advertised critical finite-size exponents (amplitudes are out of scope)."""
    return CriticalExponents(
        chi2_exponent=-2.0 / 3.0,
        xi2_exponent=-2.0 / 3.0,
        qcr_exponent=-5.0 / 6.0,
        sx2_moment_exponent=-2.0 / 3.0,
        sy2_moment_exponent=-4.0 / 3.0,
    )
