"""Ground-state eigensolvers for real symmetric tridiagonal matrices.

ground_eigenpair brackets the smallest eigenvalue by bisection on a
positive-definiteness test, then takes the eigenvector from
twisted-factorization solves and Rayleigh-quotient passes; given a
nearby start, it first tries those passes from there and one
definiteness test instead.
lmg_ground_state solves both parity blocks of one model instance and
returns the lower one (even wins exact ties, so the reported state keeps
<S_x> = <S_y> = 0).  Each block is solved on a window of rows around the
mean-field magnetization, sized and started from the Bogoliubov ground
state and widened until the zero-padded result is certified as the
ground state of the whole block.
Only the rows of a window and a few rows beside it are ever built, so a
ground state's memory follows the state, not N.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .analytic import bogoliubov_ground_energy
from .spincore import (
    EVEN,
    ODD,
    ModelParams,
    TridiagonalMatrix,
    block_top,
    build_sector,
    build_sector_matrix,
    sector_dimension,
    sector_row,
    tridiagonal_matvec,
)

_SAFE_MIN = float(np.finfo(float).tiny)
_BISECTION_RELTOL = 1e-13
_RESIDUAL_FACTOR = 1e-10
_DEGENERACY_RELTOL = 1e-12
_WINDOW_HALF_WIDTH = 16  # least first window: 33 rows
_WARM_PASSES = 6  # Rayleigh-quotient passes before a warm start gives way to bisection
_WINDOW_EDGE_RELTOL = 1e-17
_SLACK_MARGIN = 0.1  # of the block tolerance; see _window_certified


class ConvergenceError(RuntimeError):
    """The eigenvector failed the residual gate."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (last residual {residual:.3e})")
        self.residual = residual


@dataclass(frozen=True)
class GroundState:
    """Lowest eigenstate of one model instance.

    `amplitudes` covers the state's support: rows offset, offset + 1, ...
    of its parity block (the accepted window, or the whole block).  Every
    other row of the block has amplitude 0.
    """

    params: ModelParams
    parity: str
    energy: float
    amplitudes: np.ndarray
    offset: int = 0

    def sector(self):
        """The support's rows of the parity block, one M per amplitude."""
        return build_sector(self.params, self.parity, self.offset, self.offset + self.amplitudes.size)

    def block_amplitudes(self) -> np.ndarray:
        """Amplitudes over the whole parity block, zero outside the support."""
        vec = np.zeros(sector_dimension(self.params, self.parity))
        vec[self.offset:self.offset + self.amplitudes.size] = self.amplitudes
        return vec


def _residual_tolerance(t: TridiagonalMatrix) -> float:
    scale = float(np.max(np.abs(t.diagonal)))
    if t.offdiagonal.size:
        scale += 2.0 * float(np.max(np.abs(t.offdiagonal)))
    return _RESIDUAL_FACTOR * max(1.0, scale)


def _pivot_floor(e: np.ndarray) -> float:
    biggest = float(np.max(e * e)) if e.size else 1.0
    return _SAFE_MIN * max(1.0, biggest)


def _definite(diagonal, off_squared, x, pivmin) -> bool:
    """True when every LDL^T pivot of T - xI is at least pivmin (T - xI is
    positive definite).  `_pivots` gives the same pivots up to the first one
    below pivmin and leaves that one negative: this is a Sturm count of 0."""
    q = diagonal[0] - x
    if q < pivmin:
        return False
    for i in range(1, len(diagonal)):
        q = (diagonal[i] - x) - off_squared[i - 1] / q
        if q < pivmin:
            return False
    return True


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
        if not _definite(diagonal, off_squared, mid, pivmin):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _pivots(diagonal, off_squared, shift, pivmin) -> np.ndarray:
    """Top-down pivots of T - shift I; one below pivmin in magnitude becomes -pivmin."""
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


def _twisted_vector(d, e, diagonal, off_squared, shift, pivmin) -> np.ndarray:
    """Unit eigenvector for the eigenvalue nearest `shift`, by one twisted solve.

    `d` and `e` are T's diagonal and off-diagonal, `diagonal` is d as a
    list.  With top-down pivots q and bottom-up pivots p of T - shift I,
    the twist index r minimizes |q_r + p_r - (d_r - shift)|.  Setting z_r = 1, the
    two bidiagonal factors give z_i = -(e_i / q_i) z_(i+1) above r and
    z_(i+1) = -(e_i / p_(i+1)) z_i below it (Parlett & Dhillon, "Fernando's
    solution to Wilkinson's problem", LAA 267, 1997).
    """
    q = _pivots(diagonal, off_squared, shift, pivmin)
    p = _pivots(diagonal[::-1], off_squared[::-1], shift, pivmin)[::-1]
    # Halved terms: the same argmin, without overflow when |q| + |p| nears the float range.
    r = int(np.argmin(np.abs(0.5 * q + 0.5 * p - 0.5 * (d - shift))))
    z = np.empty(d.size)
    z[r] = 1.0
    z[:r] = np.cumprod((-e[:r] / q[:r])[::-1])[::-1]
    z[r + 1:] = np.cumprod(-e[r:] / p[r + 1:])
    z /= np.max(np.abs(z))  # the norm of z itself can overflow
    return z / np.linalg.norm(z)


def _twisted_solves(t: TridiagonalMatrix, off_squared, pivmin, shift, passes, reltol):
    """Eigenpair of T near `shift` from twisted solves; (energy, vector,
    residual), or None when the shift does not settle.

    Each pass solves T - shift I at 0, and the Rayleigh quotient of its
    vector on that matrix is the correction delta.  While |delta| exceeds
    reltol max(1, |shift|) the shift moves by delta and the next pass
    runs; after `passes` passes None is returned.  Then one more solve, on
    the same T - shift I at delta, gives the vector, whose Rayleigh
    quotient on that matrix, added to the shift, is the energy.  Near the
    eigenvalue the shifted diagonal is small and exact, so the quotient
    keeps the low digits that T's own (its diagonal is O(N)) would round
    away.  The shifted entries are used as they are: T was checked when it
    was built.
    """
    e = t.offdiagonal
    for _ in range(passes):
        d = t.diagonal - shift
        diagonal = d.tolist()
        v = _twisted_vector(d, e, diagonal, off_squared, 0.0, pivmin)
        delta = float(v @ tridiagonal_matvec(d, e, v))
        if not abs(delta) > reltol * max(1.0, abs(shift)):
            break
        shift += delta
    else:
        return None
    v = _twisted_vector(d, e, diagonal, off_squared, delta, pivmin)
    sv = tridiagonal_matvec(d, e, v)
    delta = float(v @ sv)
    return shift + delta, v, float(np.linalg.norm(sv - delta * v))


def ground_eigenpair(t: TridiagonalMatrix, *, start: float | None = None) -> tuple[float, np.ndarray]:
    """Smallest eigenvalue and normalized eigenvector of a symmetric tridiagonal matrix.

    The eigenvalue is bracketed by bisection to relative tolerance 1e-13:
    x lies below it exactly when T - xI is positive definite.  A twisted
    solve at that shift gives a vector whose Rayleigh quotient shifts a
    second solve.  That pair's vector is still off by about the bisection
    width over the gap above the eigenvalue (2.5e-4 in chi2 at N = 1e9,
    gamma = 0.5, h = 1), so Rayleigh-quotient passes from its energy
    settle the shift to relative 1e-13 (at most _WARM_PASSES passes; see
    _twisted_solves) before a last solve.  Their pair replaces it when it
    meets the gate below and its energy lies within the bisection width
    of the bisection shift.  (Passes from the bisection shift itself would
    stop after one: its first correction is already inside 1e-13.)  The
    vector is positive at its twist row (z_r = 1 before normalization),
    so with a non-positive off-diagonal, as in every LMG block, all of
    its amplitudes are >= 0 (Perron-Frobenius).  The result must satisfy

        || T v - E v ||_2 <= 1e-10 max(1, ||diag||_inf + 2 ||off||_inf),

    otherwise ConvergenceError carries the residual.

    Given a `start` near the smallest eigenvalue, Rayleigh-quotient passes
    from it first settle on the eigenvalue E nearest it, to relative 1e-13
    (at most _WARM_PASSES passes).  That pair is returned when it meets
    the gate and T - (E - m) I is positive definite, m = 1e-13 max(1, |E|):
    then no eigenvalue lies more than m below E, so E is the smallest one,
    resolved as finely as bisection resolves it.  (A margin of the whole
    gate would not do: at h = 1 and N = 1e8 the second level of a block
    lies 3.4e-3 above the first, inside the gate of 7.5e-3.)  Otherwise
    bisection runs as without a start.
    """
    e = t.offdiagonal
    off_squared = (e * e).tolist()
    pivmin = _pivot_floor(e)
    tol = _residual_tolerance(t)
    if start is not None:
        pair = _twisted_solves(t, off_squared, pivmin, start, _WARM_PASSES, _BISECTION_RELTOL)
        if pair is not None:
            energy, v, residual = pair
            x = energy - _BISECTION_RELTOL * max(1.0, abs(energy))
            if residual <= tol and _definite(t.diagonal.tolist(), off_squared, x, pivmin):
                return energy, v
    shift = _bisect_smallest(t, off_squared, pivmin)
    # The bisection shift is taken as it is: one pass, whatever its correction.
    energy, v, residual = _twisted_solves(t, off_squared, pivmin, shift, 1, math.inf)
    pair = _twisted_solves(t, off_squared, pivmin, energy, _WARM_PASSES, _BISECTION_RELTOL)
    width = _BISECTION_RELTOL * max(1.0, abs(shift))
    if pair is not None and pair[2] <= tol and abs(pair[0] - shift) <= width:
        energy, v, residual = pair
    if not residual <= tol:
        raise ConvergenceError("twisted solve missed the residual target", residual)
    return energy, v


class _Block:
    """One parity block of a model, built a row range at a time.

    `_window_eigenpair` reads a block only through `dimension`,
    `rows(lo, hi)`, `tolerance()` and `slack_floor(lo, hi)`.  `centre` is
    the row nearest M = h S, and so nearest the mean-field S min(h, 1).
    """

    def __init__(self, params: ModelParams, parity: str):
        self.params = params
        self.parity = parity
        self.dimension = sector_dimension(params, parity)
        self.centre = sector_row(params, parity, params.h * params.total_spin)
        self._top = block_top(params, parity)

    def rows(self, lo: int, hi: int) -> TridiagonalMatrix:
        """Rows [lo, hi) of the block, bit-identical to the whole block's."""
        return build_sector_matrix(self.params, build_sector(self.params, self.parity, lo, hi))

    def tolerance(self) -> float:
        """A residual gate at least the whole block's, from a closed form.

        With N = 2S, |d| <= (1+gamma)(S+1)/4 + h S, and since
        b <= S(S+1) (AM-GM on the two factors under its root),
        2 max|e| <= (1-gamma)(S+1)/4.  So h S + (S+1)/2 bounds the whole
        block's max|d| + 2 max|e|.  On blocks of more than one row, the
        only ones windowed, it is under twice that scale.
        """
        p = self.params
        s = p.total_spin
        return _RESIDUAL_FACTOR * max(1.0, p.h * s + (s + 1.0) / 2.0)

    def slack_floor(self, lo: int, hi: int) -> float:
        """A closed-form lower bound on the row sums d_i - |e_(i-1)| - |e_i|
        over the rows outside [lo, hi); inf when there are none.

        AM-GM gives b <= C - (M'+1)^2 on the pair (M'+2, M'), C = S(S+1),
        so row M sums to at least M^2/N - h M - C/N + (1-gamma)/(2N).  The
        even block's end rows M = +-S lack a coupling, 0 rather than the
        bound's -(1-gamma)(S+1)/(4N); taking that off every row gives
        P(M) = M^2/N - h M - C/N + (1-gamma)(1-S)/(4N), convex with its
        minimum at M = h S, so least on each run of outside rows at the
        run's row nearest `centre`.  Against the row sums of blocks built
        in floats (N from 2 to 1e9, gamma and h in [0, 3]) P is at most
        0.5 below them and at most 2.2e-16 of the block's scale above.
        """
        p = self.params
        s, n = p.total_spin, float(p.n_spins)
        floor = math.inf
        rows = [min(self.centre, lo - 1)] * (lo > 0) + [max(self.centre, hi)] * (hi < self.dimension)
        for m in (self._top - 2.0 * row for row in rows):
            floor = min(floor, (m * m - s * (s + 1)) / n - p.h * m + (1 - p.gamma) * (1 - s) / (4 * n))
        return floor


def _window_certified(block, ext: TridiagonalMatrix, lo: int, hi: int, x: float, tol: float) -> bool:
    """True when a definiteness test on rows lo:hi proves the block has no
    eigenvalue below x.

    ext holds the block's rows max(lo - 2, 0):min(hi + 2, n), and tol is
    the block's `tolerance()`, at least its residual gate.

    `block.slack_floor(lo, hi)` must exceed x by a margin of 0.1 tol, far
    above the rounding of the floor and of the entries; a result inside it
    is inconclusive, and the window widens.  Then the rows outside the
    window are strictly diagonally dominant in T - xI and form a positive
    definite matrix C; when the Schur complement W - B C^-1 B^T of the
    window W is positive definite too, so is T - xI.  That complement lowers
    only the window's edge diagonals next to C, each by e_link^2 / q_j,
    where q_j > d_j - x - |e_inner| > |e_link| is the pivot of C's row j
    next to the window, eliminated from the block's end; e_inner couples
    row j to C's next row.  Lowering a diagonal further cannot make a matrix
    positive definite, so the bound e_link^2 / (d_j - x - |e_inner|) in
    place of e_link^2 / q_j keeps the proof.
    """
    if not block.slack_floor(lo, hi) - x > _SLACK_MARGIN * tol:
        return False
    n = block.dimension
    elo = max(lo - 2, 0)
    d, ae = ext.diagonal, np.abs(ext.offdiagonal)
    diagonal = d[lo - elo:hi - elo].tolist()
    if lo > 0:  # C's row j = lo - 1 sits above the window
        j = lo - 1 - elo
        inner = float(ae[j - 1]) if lo > 1 else 0.0
        diagonal[0] -= float(ae[j]) ** 2 / (float(d[j]) - x - inner)
    if hi < n:  # C's row j = hi sits below it
        j = hi - elo
        inner = float(ae[j]) if hi < n - 1 else 0.0
        diagonal[-1] -= float(ae[j - 1]) ** 2 / (float(d[j]) - x - inner)
    w = ext.offdiagonal[lo - elo:hi - elo - 1]
    return _definite(diagonal, (w * w).tolist(), x, _pivot_floor(w))


def _window_eigenpair(block, centre: int, half: int = _WINDOW_HALF_WIDTH,
                      start: float | None = None) -> tuple[int, float, np.ndarray]:
    """Ground eigenpair of a block, solved on a window of rows around row
    `centre`; returns (offset of the window, energy, window vector).

    The window is the 2w + 1 rows centred on `centre`, shifted inward
    where the block ends, with w = `half` at first.  Only its rows and two
    more on each side are built.  The first solve starts from `start`, when
    given, and each later one from the energy of the window before, which
    by interlacing is not below the wider window's.  Its pair, zero-padded
    to the whole block, is accepted when (a) each window edge inside the
    block has |amplitude| <= 1e-17 of the peak, and (b)
    `_window_certified` proves, from those rows and the block's slack
    floor, that the block has no eigenvalue below E - tol, tol being `block.tolerance()`.  Cauchy
    interlacing gives E >= the block's minimum, so (b) rules out a lower
    eigenvalue.  The padded vector's residual on the whole block is the
    window's, which met its own (smaller) gate, plus the two edge
    couplings that (a) holds below 1e-17 |e| of the peak; it is not
    checked again.  Otherwise the window recentres on its largest
    amplitude, w doubles, and the solve repeats, as it does when (b) is
    inconclusive.  A window of more than half the block would save little
    over the whole block and could fail again, so the whole block, built
    and solved as without a window (from the same start), takes its place
    and ends the widening.  A window solve that misses its own residual gate raises
    ConvergenceError.
    """
    n = block.dimension
    tol = block.tolerance()
    while True:
        size = 2 * half + 1
        if 2 * size > n:
            return (0, *ground_eigenpair(block.rows(0, n), start=start))
        lo = min(max(0, centre - half), n - size)
        hi = lo + size
        elo = max(lo - 2, 0)
        ext = block.rows(elo, min(hi + 2, n))
        energy, v = ground_eigenpair(
            TridiagonalMatrix(ext.diagonal[lo - elo:hi - elo], ext.offdiagonal[lo - elo:hi - elo - 1]),
            start=start)
        edge = _WINDOW_EDGE_RELTOL * float(np.max(np.abs(v)))
        if (lo == 0 or abs(v[0]) <= edge) and (hi == n or abs(v[-1]) <= edge):
            if _window_certified(block, ext, lo, hi, energy - tol, tol):
                return lo, energy, v
        centre = lo + int(np.argmax(np.abs(v)))
        half *= 2
        start = energy


def _first_window(params: ModelParams) -> tuple[int, dict[str, float | None]]:
    """Half-width of both blocks' first window, and each block's warm start.

    The starts come from the Holstein-Primakoff/Bogoliubov expansion, one
    boson mode of frequency w, which gives each block's lowest level to
    O(1/N) away from h = 1: the ground energy E_B
    (`analytic.bogoliubov_ground_energy`) for the even block, and for the
    odd one E_B in the broken phase (the two blocks are degenerate there)
    and E_B + w, w = sqrt((h-1)(h-gamma)), the one-boson level, in the
    symmetric phase.  A block's levels lie O(1) apart there, so its lowest
    level is its level nearest its start.  There is no start at h = 1,
    and none at gamma = 1, where the blocks are diagonal: bisection needs
    no step on them, while a start could land on a level O(1/N) above the
    lowest and fall back.

    In the broken phase Var(S_z) = (N/4) sqrt((1-h^2)(1-gamma)) to the
    same order, and an amplitude falls to 1e-17 of the peak about
    3.13 sqrt(N sqrt((1-h^2)(1-gamma))) rows from it; the half-width
    4 sqrt(N sqrt((1-h^2)(1-gamma))), at least 16, covers that in one
    window.  Elsewhere the first half-width is 16.
    """
    p = params
    starts = {EVEN: None, ODD: None}
    if p.h != 1.0 and p.gamma < 1.0:
        energy = bogoliubov_ground_energy(p.n_spins, p.gamma, p.h)
        boson = math.sqrt(p.h - 1.0) * math.sqrt(p.h - p.gamma) if p.h > 1.0 else 0.0
        starts = {EVEN: energy, ODD: energy + boson}
    half = _WINDOW_HALF_WIDTH
    if p.h < 1.0:
        spread = p.n_spins * math.sqrt((1.0 - p.h * p.h) * (1.0 - p.gamma))
        half = max(half, math.ceil(4.0 * math.sqrt(spread)))
    return half, starts


def lmg_ground_state(params: ModelParams) -> GroundState:
    """Ground state over both parity blocks; exact ties resolve to even parity."""
    half, starts = _first_window(params)
    solved = {}
    for parity in (EVEN, ODD):
        block = _Block(params, parity)
        solved[parity] = _window_eigenpair(block, block.centre, half, starts[parity])
    (o_even, e_even, v_even), (o_odd, e_odd, v_odd) = solved[EVEN], solved[ODD]
    tie = _DEGENERACY_RELTOL * max(1.0, abs(e_even), abs(e_odd))
    if e_odd < e_even - tie:
        return GroundState(params=params, parity=ODD, energy=e_odd, amplitudes=v_odd, offset=o_odd)
    return GroundState(params=params, parity=EVEN, energy=e_even, amplitudes=v_even, offset=o_even)
