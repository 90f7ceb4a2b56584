"""Metrology diagnostics for pure collective-spin states.

For a state with mean spin along z and <{S_x,S_y}> = 0, everything
reduces to the transverse second moments: the quantum Fisher information
is F = 4 max Var(S_perp), the entanglement witness is chi^2 = N/F, and
the two spin-squeezing parameters are xi1^2 = 4 min Var(S_perp) / N and
xi2^2 = N min Var(S_perp) / <S_z>^2.  Every spin-flip parity eigenstate
has real amplitudes, so <{S_x,S_y}> vanishes and the extremal transverse
variances are min and max of (<S_x^2>, <S_y^2>), along x and y.
"""

import math
from typing import NamedTuple

import numpy as np

from .solver import GroundState
from .spincore import model_fields, spin_flip_count

MEAN_SPIN_FLOOR = 1e-12  # |<S_z>| <= this times N (rounding noise grows with N) reports xi2^2 = inf
_NORM_TOL = 1e-12


class ObservableSet(NamedTuple):
    """Collective-spin moments of one state (first transverse moments and
    <{S_x,S_y}> vanish)."""

    sz_mean: float
    sz2: float
    sx2: float
    sy2: float


class MetrologyReport(NamedTuple):
    """chi^2, squeezing parameters, QFI and the phase-uncertainty bounds (nu = 1)."""

    chi2: float
    xi1_2: float
    xi2_2: float
    fisher: float
    qcr: float
    shot_noise: float


def transverse_moments(gs: GroundState) -> ObservableSet:
    """<S_z>, <S_z^2>, <S_x^2> and <S_y^2> of a real state on one block's support.

    The k-th amplitude c_k sits at M = top - 2 (offset + k).  S+ sends it to
    up_k = sqrt((S-M)(S+M+1)) c_k at M+1 and S- to down_k = sqrt((S+M)(S-M+1)) c_k
    at M-1, both on the other parity's lattice, whose entries are up_0,
    up_(k+1) +- down_k and down_last.  <S_x^2> and <S_y^2> are the squared
    norms ||(S+ +- S-) psi||^2 / 4: sums of squares, with no cancellation.
    """
    c = np.asarray(gs.amplitudes)
    if c.dtype.kind not in "iuf":
        raise ValueError(f"amplitudes must be real numbers, got dtype {c.dtype}")
    if c.ndim != 1:
        raise ValueError(f"amplitude vector does not match the sector dimension: shape {c.shape} is not 1-D")
    c = c.astype(float, copy=False)
    weights = c * c
    norm = math.sqrt(float(np.sum(weights)))
    if not abs(norm - 1.0) <= _NORM_TOL:  # a NaN norm fails too
        raise ValueError(f"state is not normalized (||amplitudes|| = {norm!r})")
    m = gs.sector()
    s = gs.params.total_spin
    up = np.sqrt((s - m) * (s + m + 1.0)) * c
    down = np.sqrt((s + m) * (s - m + 1.0)) * c
    ends = up[0] * up[0] + down[-1] * down[-1]
    return ObservableSet(
        sz_mean=float(np.sum(weights * m)),
        sz2=float(np.sum(weights * m * m)),
        sx2=0.25 * float(np.sum((up[1:] + down[:-1]) ** 2) + ends),
        sy2=0.25 * float(np.sum((up[1:] - down[:-1]) ** 2) + ends),
    )


def _report_from_variances(n_spins: int, vmin: float, vmax: float, sz_mean: float) -> MetrologyReport:
    fisher = 4.0 * vmax
    if abs(sz_mean) <= MEAN_SPIN_FLOOR * n_spins:
        xi2 = math.inf
    else:
        s, k = math.frexp(sz_mean)  # <S_z> = s 2^k with 1/2 <= |s| < 1, so nothing overflows
        xi2 = n_spins * math.ldexp(vmin, -2 * k) / (s * s)
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


def dicke_metrics(n_spins: int, m: float) -> MetrologyReport:
    """Closed-form report for the Dicke state |S = N/2, M>.

    Both transverse moments equal ((S - M)(S + M) + S)/2 = (S^2 + S - M^2)/2, so

        chi2 = N / (2 (S^2 + S - M^2)),    xi1^2 = 1/chi2,

    with equality chi2 = 1 exactly at M = +-S.  xi2^2 is infinite at
    M = 0 (no mean spin).
    """
    n_spins = model_fields(n_spins)[0]
    s = n_spins / 2.0
    m = s - spin_flip_count(s, m)
    variance = 0.5 * ((s - m) * (s + m) + s)  # no cancellation at M near +-S
    return _report_from_variances(n_spins, variance, variance, m)


def cat_state_metrics(n_spins: int) -> MetrologyReport:
    """Report for the GHZ-like superposition (|S,S> + |S,-S>)/sqrt(2).

    For N >= 2 all first moments vanish and the maximal variance is
    (Delta S_z)^2 = S^2, giving chi2 = 1/N and a phase uncertainty of
    exactly 1/N; with no mean spin, xi2^2 is reported infinite.  At N = 1
    the state is the coherent state along x: its mean spin 1/2 lies along
    x, both variances across it are 1/4, and F = xi1^2 = xi2^2 = 1.
    """
    n_spins = model_fields(n_spins)[0]
    s = n_spins / 2.0
    vmax = s * s
    transverse = 0.5 * s
    if n_spins == 2:
        # S+^2 couples the two components only for N = 2: sx2 = 1, sy2 = 0
        vmin = 0.0
    else:
        vmin = transverse
    return _report_from_variances(n_spins, vmin, vmax, s if n_spins == 1 else 0.0)
