"""Ground-state eigensolvers for real symmetric tridiagonal matrices.

ground_eigenpair brackets the smallest eigenvalue with Sturm-sequence
bisection, then takes the eigenvector from two twisted-factorization
solves.  lmg_ground_state solves both parity blocks of one model
instance and returns the lower one (even wins exact ties, so the
reported state keeps <S_x> = <S_y> = 0).  Each block is solved on a
window of rows around the mean-field magnetization, widened until the
zero-padded result is certified as the ground state of the whole block.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from .spincore import (
    EVEN,
    ODD,
    ModelParams,
    TridiagonalMatrix,
    build_sector,
    build_sector_matrix,
)

_SAFE_MIN = float(np.finfo(float).tiny)
_BISECTION_RELTOL = 1e-13
_RESIDUAL_FACTOR = 1e-10
_DEGENERACY_RELTOL = 1e-12
_WINDOW_HALF_WIDTH = 16  # first window: 33 rows
_WINDOW_EDGE_RELTOL = 1e-17


class ConvergenceError(RuntimeError):
    """The eigenvector failed the residual gate."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (last residual {residual:.3e})")
        self.residual = residual


@dataclass(frozen=True)
class GroundState:
    """Lowest eigenstate of one model instance, over its sector's descending M values."""

    params: ModelParams
    parity: str
    energy: float
    amplitudes: np.ndarray

    def sector(self):
        return build_sector(self.params, self.parity)


def _residual_tolerance(t: TridiagonalMatrix) -> float:
    scale = float(np.max(np.abs(t.diagonal)))
    if t.offdiagonal.size:
        scale += 2.0 * float(np.max(np.abs(t.offdiagonal)))
    return _RESIDUAL_FACTOR * max(1.0, scale)


def _pivot_floor(e: np.ndarray) -> float:
    biggest = float(np.max(e * e)) if e.size else 1.0
    return _SAFE_MIN * max(1.0, biggest)


def _count_below(diagonal, off_squared, x, pivmin):
    """Sturm-sequence count of eigenvalues below x (exact hits count as below)."""
    count = 0
    q = diagonal[0] - x
    if abs(q) < pivmin:
        q = -pivmin
    if q < 0.0:
        count += 1
    for i in range(1, len(diagonal)):
        q = (diagonal[i] - x) - off_squared[i - 1] / q
        if abs(q) < pivmin:
            q = -pivmin
        if q < 0.0:
            count += 1
    return count


def _bisect_smallest(t: TridiagonalMatrix, off_squared, pivmin) -> float:
    """Bracket the minimal eigenvalue to relative width 1e-13.

    The start is [min(d - radius), min(d)]: Gershgorin's lower end, and
    the smallest diagonal entry, which is a Rayleigh quotient and so not
    below the minimal eigenvalue.
    """
    d = t.diagonal
    e = t.offdiagonal
    radius = np.zeros(d.size)
    if e.size:
        radius[:-1] += np.abs(e)
        radius[1:] += np.abs(e)
    lo = float(np.min(d - radius))
    hi = float(np.min(d))
    diagonal = d.tolist()
    while hi - lo > _BISECTION_RELTOL * max(1.0, abs(lo), abs(hi)):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # interval no longer splits in floats
            break
        if _count_below(diagonal, off_squared, mid, pivmin) >= 1:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _pivots(diagonal, off_squared, shift, pivmin) -> np.ndarray:
    """Top-down pivots of T - shift I, with the Sturm count's recurrence and clamp."""
    n = len(diagonal)
    out = array("d", bytes(8 * n))
    q = diagonal[0] - shift
    if abs(q) < pivmin:
        q = -pivmin
    out[0] = q
    for i in range(1, n):
        q = (diagonal[i] - shift) - off_squared[i - 1] / q
        if abs(q) < pivmin:
            q = -pivmin
        out[i] = q
    return np.frombuffer(out)


def _twisted_vector(t: TridiagonalMatrix, diagonal, off_squared, shift, pivmin) -> np.ndarray:
    """Unit eigenvector for the eigenvalue nearest `shift`, by one twisted solve.

    With top-down pivots q and bottom-up pivots p of T - shift I, the twist
    index r minimizes |q_r + p_r - (d_r - shift)|.  Setting z_r = 1, the
    two bidiagonal factors give z_i = -(e_i / q_i) z_(i+1) above r and
    z_(i+1) = -(e_i / p_(i+1)) z_i below it (Parlett & Dhillon, "Fernando's
    solution to Wilkinson's problem", LAA 267, 1997).
    """
    e = t.offdiagonal
    q = _pivots(diagonal, off_squared, shift, pivmin)
    p = _pivots(diagonal[::-1], off_squared[::-1], shift, pivmin)[::-1]
    # Halved terms: the same argmin, without overflow when |q| + |p| nears the float range.
    r = int(np.argmin(np.abs(0.5 * q + 0.5 * p - 0.5 * (t.diagonal - shift))))
    z = np.empty(t.dimension)
    z[r] = 1.0
    z[:r] = np.cumprod((-e[:r] / q[:r])[::-1])[::-1]
    z[r + 1:] = np.cumprod(-e[r:] / p[r + 1:])
    z /= np.max(np.abs(z))  # the norm of z itself can overflow
    return z / np.linalg.norm(z)


def ground_eigenpair(t: TridiagonalMatrix) -> tuple[float, np.ndarray]:
    """Smallest eigenvalue and normalized eigenvector of a symmetric tridiagonal matrix.

    The eigenvalue is bracketed by Sturm bisection to relative tolerance
    1e-13.  A twisted solve at that shift gives a vector whose Rayleigh
    quotient shifts a second, final solve; rounding leaves nothing for a
    third.  The vector is positive at its twist row (z_r = 1 before
    normalization), so with a non-positive off-diagonal, as in every LMG
    block, all of its amplitudes are >= 0 (Perron-Frobenius).  The result
    must satisfy

        || T v - E v ||_2 <= 1e-10 max(1, ||diag||_inf + 2 ||off||_inf),

    otherwise ConvergenceError carries the residual.
    """
    e = t.offdiagonal
    if t.dimension == 1:
        return float(t.diagonal[0]), np.ones(1)
    off_squared = (e * e).tolist()
    pivmin = _pivot_floor(e)
    shift = _bisect_smallest(t, off_squared, pivmin)
    # Both solves work on T - shift I.  Near the ground state its diagonal
    # is small and exact, so the Rayleigh quotient on it keeps the low
    # digits that T's own (its diagonal is O(N)) would round away.
    shifted = TridiagonalMatrix(t.diagonal - shift, e)
    diagonal = shifted.diagonal.tolist()
    delta = 0.0
    for _ in range(2):
        v = _twisted_vector(shifted, diagonal, off_squared, delta, pivmin)
        sv = shifted.matvec(v)
        delta = float(v @ sv)
    residual = float(np.linalg.norm(sv - delta * v))
    if not residual <= _residual_tolerance(t):
        raise ConvergenceError("twisted solve missed the residual target", residual)
    return shift + delta, v


def _window_certified(t: TridiagonalMatrix, lo: int, hi: int, x: float) -> bool:
    """True when a count on rows lo:hi proves t has no eigenvalue below x.

    R, the rows where T - xI is not strictly diagonally dominant
    (d_i - x <= |e_(i-1)| + |e_i|), is found by one vectorized test.  If
    R lies inside the window, the rows outside it form a positive-definite
    matrix C, and by Haynsworth inertia additivity t's count below x is
    that of the Schur complement W - B C^-1 B^T of the window W.  That
    complement lowers only the window's edge diagonals next to C, each by
    e_link^2 / q_j, where q_j > d_j - x - |e_inner| > |e_link| is the
    pivot of C's row j next to the window, eliminated from the block's
    end; e_inner couples row j to C's next row.  The count can only rise
    as a diagonal falls, so the bound e_link^2 / (d_j - x - |e_inner|) in
    place of e_link^2 / q_j keeps the proof.
    """
    d, e = t.diagonal, t.offdiagonal
    ae = np.abs(e)
    slack = d - x
    slack[:-1] -= ae
    slack[1:] -= ae
    # R, the rows with slack <= 0, must lie inside the window.
    if min(slack[:lo].min(initial=np.inf), slack[hi:].min(initial=np.inf)) <= 0.0:
        return False
    diagonal = d[lo:hi].tolist()
    if lo > 0:  # C's row j = lo - 1 sits above the window
        inner = float(ae[lo - 2]) if lo > 1 else 0.0
        diagonal[0] -= float(ae[lo - 1]) ** 2 / (float(d[lo - 1]) - x - inner)
    if hi < d.size:  # C's row j = hi sits below it
        inner = float(ae[hi]) if hi < e.size else 0.0
        diagonal[-1] -= float(ae[hi - 1]) ** 2 / (float(d[hi]) - x - inner)
    w = e[lo:hi - 1]
    return _count_below(diagonal, (w * w).tolist(), x, _pivot_floor(w)) == 0


def _window_eigenpair(t: TridiagonalMatrix, centre: int) -> tuple[float, np.ndarray]:
    """Ground eigenpair of t, solved on a window of rows around row `centre`.

    The window is the 2w + 1 rows centred on `centre`, shifted inward
    where the block ends, with w = 16 at first.  Its pair, zero-padded
    to the whole block, is accepted when
    (a) each window edge inside the block has |amplitude| <= 1e-17 of
    the peak, and (b) `_window_certified` proves, from a count on the
    window rows alone, that the block has no eigenvalue below E - tol,
    tol being the whole block's residual gate.  Cauchy interlacing gives
    E >= the block's minimum, so (b) rules out a lower eigenvalue.  The
    padded vector's residual on the whole block is the window's, which
    met its own (smaller) gate, plus the two edge couplings that (a)
    holds below 1e-17 |e| of the peak; it is not checked again.
    Otherwise the window recentres on its largest amplitude, w doubles,
    and the solve repeats, as it does when (b) fails because rows that
    are not diagonally dominant lie outside the window.  A window of more
    than half the block would save little over the whole block and could
    fail again, so the whole block, solved exactly as without a window,
    takes its place and ends the widening.  A window solve that misses
    its own residual gate raises ConvergenceError.
    """
    d, e = t.dimension, t.offdiagonal
    tol = _residual_tolerance(t)
    half = _WINDOW_HALF_WIDTH
    while True:
        size = 2 * half + 1
        if 2 * size > d:
            return ground_eigenpair(t)
        lo = min(max(0, centre - half), d - size)
        hi = lo + size
        energy, v = ground_eigenpair(TridiagonalMatrix(t.diagonal[lo:hi], e[lo:hi - 1]))
        edge = _WINDOW_EDGE_RELTOL * float(np.max(np.abs(v)))
        if (
            (lo == 0 or abs(v[0]) <= edge)
            and (hi == d or abs(v[-1]) <= edge)
            and _window_certified(t, lo, hi, energy - tol)
        ):
            vec = np.zeros(d)
            vec[lo:hi] = v
            return energy, vec
        centre = lo + int(np.argmax(np.abs(v)))
        half *= 2


def lmg_ground_state(params: ModelParams) -> GroundState:
    """Ground state over both parity blocks; exact ties resolve to even parity."""
    m0 = params.total_spin * min(params.h, 1.0)  # mean-field <S_z> = S cos(theta0)
    solved = {}
    for parity in (EVEN, ODD):
        sector = build_sector(params, parity)
        block = build_sector_matrix(params, sector)
        centre = int(np.argmin(np.abs(sector.m_values - m0)))
        solved[parity] = _window_eigenpair(block, centre)
    e_even, v_even = solved[EVEN]
    e_odd, v_odd = solved[ODD]
    tie = _DEGENERACY_RELTOL * max(1.0, abs(e_even), abs(e_odd))
    if e_odd < e_even - tie:
        parity, energy, vec = ODD, e_odd, v_odd
    else:
        parity, energy, vec = EVEN, e_even, v_even
    return GroundState(params=params, parity=parity, energy=energy, amplitudes=vec)
