"""Metrology diagnostics for pure collective-spin states.

For a state with mean spin along z and <{S_x,S_y}> = 0, everything
reduces to the transverse second moments: the quantum Fisher information
is F = 4 max Var(S_perp), the entanglement witness is chi^2 = N/F, and
the two spin-squeezing parameters are xi1^2 = 4 min Var(S_perp) / N and
xi2^2 = N min Var(S_perp) / <S_z>^2.  Every spin-flip parity eigenstate
has real amplitudes, so <{S_x,S_y}> vanishes and the extremal transverse
variances are min and max of (<S_x^2>, <S_y^2>), along x and y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .solver import GroundState
from .spincore import double_raising_element, spin_flip_count

MEAN_SPIN_FLOOR = 1e-12  # |<S_z>| below this reports xi2^2 = inf
_NORM_TOL = 1e-12


@dataclass(frozen=True)
class ObservableSet:
    """Collective-spin moments of one state (first transverse moments and
    <{S_x,S_y}> vanish)."""

    sz_mean: float
    sz2: float
    sx2: float
    sy2: float


@dataclass(frozen=True)
class MetrologyReport:
    """chi^2, squeezing parameters, QFI and the phase-uncertainty bounds (nu = 1)."""

    chi2: float
    xi1_2: float
    xi2_2: float
    fisher: float
    qcr: float
    shot_noise: float


def transverse_moments(gs: GroundState) -> ObservableSet:
    """<S_z>, <S_z^2>, <S_x^2> and <S_y^2> of a sector eigenstate.

    S+S- + S-S+ contributes the diagonal part (S(S+1) - M^2)/2 to both
    transverse moments; S+^2 + S-^2 couples M to M+2 and splits them.
    Within one parity block the amplitudes are real and <{S_x,S_y}>,
    proportional to Im<S+^2>, vanishes identically.
    """
    c = np.asarray(gs.amplitudes, dtype=float)
    norm = float(np.linalg.norm(c))
    if abs(norm - 1.0) > _NORM_TOL:
        raise ValueError(f"state is not normalized (||amplitudes|| = {norm!r})")
    sector = gs.sector()
    m = sector.m_values
    if c.shape != m.shape:
        raise ValueError("amplitude vector does not match the sector dimension")
    s = sector.total_spin
    casimir = s * (s + 1.0)
    weights = c * c
    sz_mean = float(np.sum(weights * m))
    sz2 = float(np.sum(weights * m * m))
    diag_part = 0.5 * float(np.sum(weights * (casimir - m * m)))
    coupling = 0.5 * float(np.sum(c[:-1] * c[1:] * double_raising_element(s, m[1:])))
    return ObservableSet(
        sz_mean=sz_mean,
        sz2=sz2,
        sx2=diag_part + coupling,
        sy2=diag_part - coupling,
    )


def _report_from_variances(n_spins: int, vmin: float, vmax: float, sz_mean: float) -> MetrologyReport:
    fisher = 4.0 * vmax
    if abs(sz_mean) <= MEAN_SPIN_FLOOR:
        xi2 = math.inf
    else:
        xi2 = n_spins * vmin / (sz_mean * sz_mean)
    return MetrologyReport(
        chi2=n_spins / fisher,
        xi1_2=4.0 * vmin / n_spins,
        xi2_2=xi2,
        fisher=fisher,
        qcr=1.0 / math.sqrt(fisher),
        shot_noise=1.0 / math.sqrt(n_spins),
    )


def report(gs: GroundState) -> MetrologyReport:
    """Metrology report of a ground state; the generator lies along the
    transverse axis (x or y) of larger variance."""
    obs = transverse_moments(gs)
    vmin, vmax = sorted((obs.sx2, obs.sy2))
    return _report_from_variances(gs.params.n_spins, vmin, vmax, obs.sz_mean)


def qfi(gs: GroundState, theta: float | None = None) -> float:
    """Pure-state quantum Fisher information 4 Var(S_perp(theta)).

    With theta omitted, the optimal transverse axis is used (this is the
    F entering the report).
    """
    obs = transverse_moments(gs)
    if theta is None:
        return 4.0 * max(obs.sx2, obs.sy2)
    ct = math.cos(theta)
    st = math.sin(theta)
    return 4.0 * (ct * ct * obs.sx2 + st * st * obs.sy2)


def dicke_metrics(n_spins: int, m: float) -> MetrologyReport:
    """Closed-form report for the Dicke state |S = N/2, M>.

    Both transverse moments equal (S^2 + S - M^2)/2, so

        chi2 = N / (2 (S^2 + S - M^2)),    xi1^2 = 1/chi2,

    with equality chi2 = 1 exactly at M = +-S.  xi2^2 is infinite at
    M = 0 (no mean spin).
    """
    if n_spins < 1:
        raise ValueError(f"n_spins must be >= 1, got {n_spins}")
    s = n_spins / 2.0
    spin_flip_count(s, m)
    variance = 0.5 * (s * s + s - m * m)
    return _report_from_variances(n_spins, variance, variance, float(m))


def cat_state_metrics(n_spins: int) -> MetrologyReport:
    """Report for the GHZ-like superposition (|S,S> + |S,-S>)/sqrt(2).

    All first moments vanish and the maximal variance is (Delta S_z)^2 =
    S^2, giving chi2 = 1/N and a phase uncertainty of exactly 1/N; with
    no mean spin, xi2^2 is reported infinite.
    """
    if n_spins < 1:
        raise ValueError(f"n_spins must be >= 1, got {n_spins}")
    s = n_spins / 2.0
    vmax = s * s
    transverse = 0.5 * s
    if n_spins == 2:
        # S+^2 couples the two components only for N = 2: sx2 = 1, sy2 = 0
        vmin = 0.0
    else:
        vmin = transverse
    return _report_from_variances(n_spins, vmin, vmax, 0.0)
