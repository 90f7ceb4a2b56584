"""Ground-state eigensolvers for real symmetric tridiagonal matrices.

ground_eigenpair takes the smallest eigenvalue and its eigenvector from
one call to LAPACK's dstevx (bisection, then inverse iteration), from the
OpenBLAS that numpy itself loads.  lmg_ground_state solves both parity
blocks of one model instance and returns the lower one (even wins exact
ties, so the reported state keeps <S_x> = <S_y> = 0).  Each block is
solved on a window of rows around the mean-field magnetization, sized
from the Bogoliubov ground state (near h = 1, from the critical
quartic-oscillator width), bordered by the row beside each inner edge,
and widened until the zero-padded result is certified as the ground
state of the whole block by spincore's `row_sum_floor`.  Only the rows
of a window and a few rows beside it are ever built, so a ground state's
memory follows the state, not N.  LAPACK, the residual gate, the window
search and the parity choice are here, the model's formulas in spincore.
"""

import ctypes
import math
from typing import NamedTuple

import numpy as np

from .spincore import (
    EVEN,
    ODD,
    ModelParams,
    TridiagonalMatrix,
    build_sector,
    build_sector_matrix,
    row_sum_floor,
    sector_dimension,
    sector_row,
)

# numpy's wheel links the scipy-openblas64 build of OpenBLAS, whose Fortran
# LAPACK entry points take 64-bit integers.  Opening numpy's own extension
# module finds them among its dependencies without loading another library.
_OPENBLAS = ctypes.CDLL(np._core._multiarray_umath.__file__)
try:
    _dstevx = _OPENBLAS.scipy_dstevx_64_
except AttributeError:
    raise ImportError("numpy's OpenBLAS does not export scipy_dstevx_64_, which lmgfisher needs") from None
# its 18 arguments by reference, then the hidden lengths of its CHARACTER arguments JOBZ and RANGE
_dstevx.argtypes = [ctypes.c_void_p] * 18 + [ctypes.c_size_t] * 2
_dstevx.restype = None
_ONE, _ZERO = ctypes.byref(ctypes.c_int64(1)), ctypes.byref(ctypes.c_double(0.0))  # made once, not per call
_ABSTOL = ctypes.byref(ctypes.c_double(2.0 * float(np.finfo(float).tiny)))  # bisection's most accurate
_BUFFER_TYPES = (np.dtype(np.float64), np.dtype(np.int64))
_NO_BYTES = ctypes.c_char * 0  # a view of none of a buffer's bytes, at the buffer's address


def _address(a: np.ndarray, size: int) -> int:
    """Where LAPACK, which checks nothing, reads and writes `a`: a fresh C-contiguous
    float64 or int64 vector of `size` entries, held by the caller until LAPACK returns."""
    if not (a.shape == (size,) and a.flags.owndata and a.flags.c_contiguous and a.dtype in _BUFFER_TYPES):
        raise ValueError(f"LAPACK takes a fresh C-contiguous float64 or int64 vector of length {size}")
    return ctypes.addressof(_NO_BYTES.from_buffer(a))  # a third of the cost of a.ctypes.data


_FLOAT_MAX = float(np.finfo(float).max)
_RESIDUAL_FACTOR = 1e-10
_DEGENERACY_RELTOL = 1e-12
_WINDOW_HALF_WIDTH = 16  # least first window: 33 rows
_CROSSOVER_BAND = 32.0  # |h - 1| N^(2/3) up to this takes the critical width
_WINDOW_EDGE_RELTOL = 1e-17
_SLACK_MARGIN = 0.1  # of the bordered window's residual gate; see _window_eigenpair


class ConvergenceError(RuntimeError):
    """The eigenpair failed the residual gate, or LAPACK reported a failure."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (last residual {residual:.3e})")
        self.residual = residual


class GroundState(NamedTuple):
    """Lowest eigenstate of one model instance.

    `amplitudes` covers the state's support: rows offset, offset + 1, ...
    of its parity block (the accepted window with its border rows, or the
    whole block).  Every other row of the block has amplitude 0.
    """

    params: ModelParams
    parity: str
    energy: float
    amplitudes: np.ndarray
    offset: int = 0

    def sector(self) -> np.ndarray:
        """The M values of the support's rows, one per amplitude."""
        return build_sector(self.params, self.parity, self.offset, self.offset + np.size(self.amplitudes))


def _scaling(t: TridiagonalMatrix) -> tuple[int, float]:
    """From one max |diag| and max |off|: the exponent -k that scales the
    largest |entry| into [1/2, 1) (0 for the zero matrix), and the residual
    gate's unit, max(1, ||diag||_inf + 2 ||off||_inf), capped at the largest float."""
    dmax, emax = float(np.max(np.abs(t.diagonal))), float(np.max(np.abs(t.offdiagonal), initial=0.0))
    return -math.frexp(max(dmax, emax))[1], min(max(1.0, dmax + 2.0 * emax), _FLOAT_MAX)


def ground_eigenpair(t: TridiagonalMatrix) -> tuple[float, np.ndarray]:
    """Smallest eigenvalue and normalized eigenvector of a symmetric tridiagonal matrix.

    dstevx bisects for the smallest eigenvalue to its most accurate
    setting (abstol 2 tiny, a few ulps of it) and takes its eigenvector
    by inverse iteration, scaled to unit norm with its largest
    |amplitude| positive.  It works on copies of the entries scaled by
    2^-k to a largest |entry| in [1/2, 1) (k = 0 for the zero matrix),
    which dstevx never rescales itself, and scales E back exactly: so
    ground_eigenpair(2^j T) is (2^j E, v) bit for bit wherever 2^j T and
    2^j E are exact (neither overflows nor rounds to a subnormal).  A
    nonzero LAPACK info raises ConvergenceError, and so does a pair that
    misses

        || T v - E v ||_2 <= 1e-10 max(1, ||diag||_inf + 2 ||off||_inf),

    that scale capped at the largest float, the error carrying the residual
    (inf when dstevx found no eigenvalue, or one past the float range).
    The residual is summed in units of that scale, so that squaring its
    entries cannot overflow.
    """
    n = t.dimension
    shift, scale = _scaling(t)
    d, e = np.ldexp(t.diagonal, shift), np.ldexp(t.offdiagonal, shift)
    size, found, info = ctypes.c_int64(n), ctypes.c_int64(), ctypes.c_int64()
    w, v, work = np.empty(n), np.empty(n), np.empty(5 * n)
    iwork, ifail = np.empty(5 * n, np.int64), np.empty(n, np.int64)
    _dstevx(b"V", b"I", ctypes.byref(size), _address(d, n), _address(e, n - 1), _ZERO, _ZERO, _ONE, _ONE, _ABSTOL,
            ctypes.byref(found), _address(w, n), _address(v, n), ctypes.byref(size), _address(work, 5 * n),
            _address(iwork, 5 * n), _address(ifail, n), ctypes.byref(info), 1, 1)
    if found.value != 1:
        raise ConvergenceError(f"dstevx found {found.value} eigenvalues (info {info.value})", math.inf)
    try:
        energy = math.ldexp(float(w[0]), -shift)
    except OverflowError:
        raise ConvergenceError("the eigenvalue is past the float range", math.inf) from None
    tv = t.diagonal * v
    tv[:-1] += t.offdiagonal * v[1:]
    tv[1:] += t.offdiagonal * v[:-1]
    r = (tv - energy * v) / scale
    units = math.sqrt(float(np.sum(r * r)))
    if info.value != 0:
        raise ConvergenceError(f"dstevx returned info {info.value}", units * scale)
    if not units <= _RESIDUAL_FACTOR:
        raise ConvergenceError("eigenvector missed the residual target", units * scale)
    return energy, v


class _Block:
    """One parity block of a model, built a row range at a time.

    `_window_eigenpair` reads a block only through `dimension`,
    `rows(lo, hi)`, whose arrays it changes, and `slack_floor(lo, hi)`.  `centre` is the row nearest
    M = h S, and so nearest the mean-field S min(h, 1).
    """

    def __init__(self, params: ModelParams, parity: str):
        self.params = params
        self.parity = parity
        self.dimension = sector_dimension(params, parity)
        self.centre = sector_row(params, parity, params.h * params.total_spin)

    def rows(self, lo: int, hi: int) -> TridiagonalMatrix:
        """Rows [lo, hi) of the block in fresh arrays, bit-identical to the whole block's."""
        return build_sector_matrix(self.params, self.parity, lo, hi)

    def slack_floor(self, lo: int, hi: int) -> float:
        """The block's `row_sum_floor` over the rows outside [lo, hi)."""
        return row_sum_floor(self.params, self.parity, lo, hi)


def _window_eigenpair(block, centre: int, half: int = _WINDOW_HALF_WIDTH) -> tuple[int, float, np.ndarray]:
    """Ground eigenpair of a block, solved on a bordered window of rows
    around row `centre`; returns (offset of the solved rows, energy, vector).

    The window is rows [lo, hi), the 2w + 1 rows centred on `centre`,
    shifted inward where the block ends, with w = `half` at first.  A
    window of more than half the block would save little and could fail
    again, so it is the whole block, lo, hi = 0, n.  Only its rows and two
    more on each side are built.  The solve is on B, the window bordered
    by the row beside each inner edge, each border row's diagonal lowered
    by |e_out|, its coupling to the row beyond, where that row exists.
    B's pair, zero-padded to the whole block, is accepted when (a) each
    border row has |amplitude| <= 1e-17 of the peak, and (b) the block's
    slack floor, a bound on d_i - |e_(i-1)| - |e_i| over every row outside
    [lo, hi), exceeds x = E - tol by 0.1 tol, tol being B's own residual
    gate, which its solve has just met.  Otherwise the window recentres on
    the largest amplitude, w doubles, and the solve repeats.  The whole
    block has no border and a slack floor of inf, so it is accepted, and
    it is the same matrix, with the same bits, as
    `ground_eigenpair(block.rows(0, n))`.  A solve that misses its own
    residual gate raises ConvergenceError.

    Why E - tol is a lower bound.  Take any x' below both B's least
    eigenvalue and the slack floor, as x is.  The rows outside the window
    are strictly diagonally dominant in T - x'I and form a positive
    definite C, and T - x'I is positive definite when the window W's Schur
    complement W - L C^-1 L^T is, L coupling W to C.  That lowers W's edge
    diagonals by e_link^2 / q_j, q_j being the pivot of C's border row j,
    eliminated from the block's end: q_j > d_j - x' - |e_out| > |e_link|.
    Lowering a diagonal further cannot make a matrix definite, and
    eliminating row j from B - x'I, which is positive definite, lowers W's
    edge by e_link^2 / (d_j - x' - |e_out|); so T - x'I is positive
    definite.  Hence the block's least eigenvalue E0 exceeds E - tol, and,
    where the slack floor lies above E as well, E0 is at least E, to within
    the rounding of E and of the floor.  The padded vector's residual on the
    block is B's, within tol, plus sqrt(2) |e_out| times the border
    amplitude on each side, which (a) holds below 1e-17 |e| of the peak;
    so E0 lies in (E - tol, E + that residual], and the residual is not
    checked again.

    The margin 0.1 tol of (b) covers the slack floor's rounding, at most
    2.2e-16 of the block's scale h S + (S+1)/2.  The states M = S (odd:
    S - 1) and the two cat states of S_x = +-S give each block
    E0 <= -max(h (S - 1), S/2), so on a windowed block (N >= 130) that
    scale is under 3 |E0|.  A window with E > E0/4 passes no certificate:
    at x = E - tol > E0/4 - 1e-9 |E0| it would, with no rounding that
    matters, also prove T - (E0/2) I definite, which is false.  On any other
    window, Gershgorin puts B's scale, and with it tol/1e-10, at least
    |E| >= |E0|/4 > 1/12 of the block's scale, so 0.1 tol exceeds the
    floor's rounding thousands of times.

    The vector returned is |v|.  Every LMG block has e <= 0, so its exact
    ground vector b is >= 0 (Perron-Frobenius), and since
    ||v_i| - b_i| <= |v_i - b_i| for each b_i >= 0, || |v| - b || <= || v - b ||.
    Inverse iteration leaves noise of about 1e-50 of either sign in the
    tails; |v| keeps every amplitude >= 0.
    """
    n = block.dimension
    while True:
        size = 2 * half + 1
        lo, hi = 0, n
        if 2 * size <= n:
            lo = min(max(0, centre - half), n - size)
            hi = lo + size
        elo = max(lo - 2, 0)
        ext = block.rows(elo, min(hi + 2, n))  # fresh arrays: the borders are lowered in place
        a, b = max(lo - 1, 0) - elo, min(hi + 1, n) - elo
        d, e = ext.diagonal, ext.offdiagonal
        if a > 0:  # row lo - 1 borders the window and couples to row lo - 2
            d[a] -= abs(e[a - 1])
        if b < ext.dimension:  # row hi borders it and couples to row hi + 1
            d[b - 1] -= abs(e[b - 1])
        bordered = TridiagonalMatrix._trusted(d[a:b], e[a:b - 1])
        energy, v = ground_eigenpair(bordered)
        v = np.abs(v)
        edge = _WINDOW_EDGE_RELTOL * float(np.max(v))
        tol = _RESIDUAL_FACTOR * _scaling(bordered)[1]
        if ((lo == 0 or v[0] <= edge) and (hi == n or v[-1] <= edge)
                and block.slack_floor(lo, hi) - (energy - tol) > _SLACK_MARGIN * tol):
            return elo + a, energy, v
        centre = elo + a + int(np.argmax(v))
        half *= 2


def _first_window(params: ModelParams) -> int:
    """Half-width of both blocks' first window.

    In the broken phase the Holstein-Primakoff/Bogoliubov expansion gives
    Var(S_z) = (N/4) sqrt((1-h^2)(1-gamma)) to O(1), and an amplitude
    falls to 1e-17 of the peak about 3.13 sqrt(N sqrt((1-h^2)(1-gamma)))
    rows from it; the half-width 4 sqrt(N sqrt((1-h^2)(1-gamma))), at
    least 16, covers that in one window.  Elsewhere it is 16.

    That spread vanishes at h = 1, but the state does not narrow: in the
    crossover band |h - 1| N^(2/3) <= 32 the low levels are those of a
    quartic oscillator whose ground state flips of order ((1-gamma)N)^(1/3)
    spins (Dusuel & Vidal, PRL 93, 237204 (2004); PRB 71, 224420 (2005)).
    At h = 1 the amplitudes of each block's lowest state fall to 1e-17 of
    the peak 7.05-7.2 (even) and 7.37-7.44 (odd) ((1-gamma)N)^(1/3) rows
    from the top row (gamma in {0, 0.5, 0.9}, N = 1e4 ... 1e9), where the
    window starts, so inside the band the half-width is at least
    4 ((1-gamma)N)^(1/3), a window of 8 such units of rows.  At gamma = 1
    that is 0, and 16 stays.  The band's edge comes from counting solves
    on seeded (N, gamma, x = (h - 1) N^(2/3)) grids: with 32, every point
    with |x| <= 30 took one solve per block.
    """
    p = params
    half = _WINDOW_HALF_WIDTH
    if p.h < 1.0:
        spread = p.n_spins * math.sqrt((1.0 - p.h * p.h) * (1.0 - p.gamma))
        half = max(half, math.ceil(4.0 * math.sqrt(spread)))
    if abs(p.h - 1.0) * p.n_spins ** (2.0 / 3.0) <= _CROSSOVER_BAND:
        half = max(half, math.ceil(4.0 * ((1.0 - p.gamma) * p.n_spins) ** (1.0 / 3.0)))
    return half


def lmg_ground_state(params: ModelParams) -> GroundState:
    """Ground state over both parity blocks; exact ties resolve to even parity."""
    half = _first_window(params)
    best = None
    for parity in (EVEN, ODD):
        block = _Block(params, parity)
        offset, energy, v = _window_eigenpair(block, block.centre, half)
        if best is None or energy < best.energy - _DEGENERACY_RELTOL * max(1.0, abs(best.energy), abs(energy)):
            best = GroundState(params=params, parity=parity, energy=energy, amplitudes=v, offset=offset)
    return best
