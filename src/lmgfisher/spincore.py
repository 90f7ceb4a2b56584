"""Dicke-basis construction of the collective-spin Hamiltonian

    H = -(1/N) (S_x^2 + gamma S_y^2) - h S_z

restricted to the maximal-spin sector S = N/2.  H commutes with the
spin-flip operator prod_i sigma_z^i, whose eigenvalue (-1)^(S-M) splits
the Dicke ladder into two uncoupled M-sublattices of spacing 2.  With

    S_x^2 + gamma S_y^2 = (1+gamma)/4 (S+ S- + S- S+) + (1-gamma)/4 (S+^2 + S-^2)

each parity block is real symmetric tridiagonal in the Dicke basis.
M values are stored strictly descending, so the field-polarized state
|S, S> is always the first coordinate of the even block.  Rows [lo, hi)
of a block are named by (params, parity, lo, hi): `build_sector` gives
their M values, `build_sector_matrix` their entries, the S+^2 element
among them, and `row_sum_floor` a floor under the row sums of the rows
outside them.
"""

import math
import numbers
import sys
from typing import NamedTuple

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


def model_fields(n_spins=1, gamma=0.0, h=0.0) -> tuple[int, float, float]:
    """N, gamma and h checked against the domain that the model and its
    closed forms share, and returned as int, float and float: N an integer
    from 1 to the float maximum, since S = N/2 and h N are computed in
    floats; 0 <= gamma <= 1; h finite and >= 0.  A bool is no field, and
    numpy integers and floats count, so a float32 field does not carry
    the arithmetic into float32."""
    if (isinstance(n_spins, bool) or not isinstance(n_spins, numbers.Integral)
            or not 1 <= n_spins <= sys.float_info.max):
        raise ValueError(f"n_spins must be an integer from 1 to the float maximum, got {n_spins!r}")
    if isinstance(gamma, bool) or not isinstance(gamma, numbers.Real) or not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must lie in [0, 1], got {gamma}")
    if isinstance(h, bool) or not isinstance(h, numbers.Real) or not 0.0 <= h < math.inf:
        raise ValueError(f"h must be >= 0 and finite, got {h}")
    return int(n_spins), float(gamma), float(h)


class ModelParams(NamedTuple("ModelParams", [("n_spins", int), ("gamma", float), ("h", float)])):
    """One model instance: the fields of `model_fields`, with N at most
    MAX_N_SPINS and h N finite, stored as int(N), float(gamma), float(h)."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace builds through it: both validate
    __reduce__ = lambda self: (type(self), tuple(self))  # unpickling validates too, at every protocol

    def __new__(cls, n_spins: int, gamma: float, h: float):
        n_spins, gamma, h = model_fields(n_spins, gamma, h)
        if n_spins > MAX_N_SPINS:
            raise ValueError(f"n_spins must be at most {MAX_N_SPINS}, got {n_spins}")
        # The block diagonal spans about h N (-h M for M in [-S, S]); past
        # the float range the solver's eigenvalue bounds overflow.
        if not math.isfinite(h * n_spins):
            raise ValueError(f"h must be >= 0 with h N finite, got h = {h} at N = {n_spins}")
        return super().__new__(cls, n_spins, gamma, h)

    @property
    def total_spin(self) -> float:
        return self.n_spins / 2.0


class TridiagonalMatrix(NamedTuple("TridiagonalMatrix",
                                   [("diagonal", np.ndarray), ("offdiagonal", np.ndarray)])):
    """Real symmetric tridiagonal matrix: main diagonal and one shared off-diagonal."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace builds through it: both validate
    __reduce__ = lambda self: (type(self), tuple(self))  # unpickling validates too, at every protocol
    _trusted = classmethod(lambda cls, d, e: tuple.__new__(cls, (d, e)))  # unchecked: see build_sector_matrix

    def __new__(cls, diagonal, offdiagonal):
        d, e = np.asarray(diagonal), np.asarray(offdiagonal)
        if d.dtype.kind not in "iuf" or e.dtype.kind not in "iuf":
            raise ValueError(f"matrix entries must be real numbers, got dtypes {d.dtype} and {e.dtype}")
        d, e = d.astype(float, copy=False), e.astype(float, copy=False)
        if d.ndim != 1 or d.size < 1:
            raise ValueError("diagonal must be a vector of length >= 1")
        if e.shape != (d.size - 1,):
            raise ValueError("offdiagonal must have length len(diagonal) - 1")
        if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e))):
            raise ValueError("matrix entries must be finite")
        return super().__new__(cls, d, e)

    @property
    def dimension(self) -> int:
        return int(self.diagonal.size)


def spin_flip_count(total_spin: float, m: float) -> int:
    """Number of flipped spins S - M; validates the (S, M) pair, M a real
    number and not a bool."""
    k = total_spin - m if isinstance(m, numbers.Real) and not isinstance(m, bool) else math.nan
    if not math.isfinite(k):
        raise ValueError(f"invalid magnetic quantum number M={m} for S={total_spin}")
    ki = int(round(k))
    if abs(k - ki) > 1e-9 or ki < 0 or ki > int(round(2 * total_spin)):
        raise ValueError(f"invalid magnetic quantum number M={m} for S={total_spin}")
    return ki


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
    (larger M) on a tie; m beyond the block, +-inf included, gives its end
    row."""
    if math.isnan(m):
        raise ValueError(f"m must be a number, got {m}")
    row = (block_top(params, parity) - m) / 2.0 - 0.5
    return math.ceil(min(max(row, 0), sector_dimension(params, parity) - 1))


def build_sector(params: ModelParams, parity: str, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """The M values of rows [lo, hi) of one parity block (by default all of
    it), descending from the block's largest member: row i holds M = top - 2i."""
    count = sector_dimension(params, parity)
    if hi is None:
        hi = count
    if (isinstance(lo, bool) or isinstance(hi, bool) or not isinstance(lo, numbers.Integral)
            or not isinstance(hi, numbers.Integral) or not 0 <= lo < hi <= count):
        raise ValueError(f"rows [{lo}, {hi}) do not lie in a block of {count} rows")
    return block_top(params, parity) - 2.0 * np.arange(lo, hi)


def build_sector_matrix(params: ModelParams, parity: str, lo: int = 0, hi: int | None = None) -> TridiagonalMatrix:
    """Rows [lo, hi) of one parity block (by default all of it), over the
    descending M values that `build_sector` gives them.

    diagonal(M)      = -((1+gamma)/(2N)) (S(S+1) - M^2) - h M
    offdiag(M, M+2)  = -((1-gamma)/(4N)) sqrt((S(S+1)-M(M+1)) (S(S+1)-(M+1)(M+2)))

    No constant shift is added or removed; energies are those of the
    Hamiltonian itself, consistent across M and across blocks.  Every
    entry depends on its own M alone, so rows [lo, hi) come out exactly
    as the whole block has them.  They skip TridiagonalMatrix's checks:
    |h M| <= h N/2 is finite in a ModelParams, and the rest is O(N^2).
    """
    n = params.n_spins
    s = params.total_spin
    m = build_sector(params, parity, lo, hi)
    casimir = s * (s + 1.0)
    diagonal = -((1.0 + params.gamma) / (2.0 * n)) * (casimir - m * m) - params.h * m
    lower = m[1:]  # the smaller M of each pair (M, M+2)
    b = np.sqrt((casimir - lower * (lower + 1.0)) * (casimir - (lower + 1.0) * (lower + 2.0)))
    offdiagonal = -((1.0 - params.gamma) / (4.0 * n)) * b
    return TridiagonalMatrix._trusted(diagonal, offdiagonal)


def row_sum_floor(params: ModelParams, parity: str, lo: int, hi: int) -> float:
    """A closed-form lower bound on the row sums d_i - |e_(i-1)| - |e_i| of
    one parity block over its rows outside [lo, hi); inf when there are none.

    AM-GM gives b <= C - (M'+1)^2 on the pair (M'+2, M'), C = S(S+1),
    so row M sums to at least M^2/N - h M - C/N + (1-gamma)/(2N).  The
    even block's end rows M = +-S lack a coupling, 0 rather than the
    bound's -(1-gamma)(S+1)/(4N); taking that off every row gives
    P(M) = M^2/N - h M - C/N + (1-gamma)(1-S)/(4N), convex with its
    minimum at M = h S, so least on each run of outside rows at the
    run's row nearest h S.  Against the row sums of blocks built by
    `build_sector_matrix` (N from 2 to 1e9, gamma in [0, 1], h in [0, 3])
    P is at most 0.5 below them and at most 2.2e-16 of the block's scale
    h S + (S+1)/2 above.
    """
    s, n, top = params.total_spin, float(params.n_spins), block_top(params, parity)
    vertex = sector_row(params, parity, params.h * s)
    rows = [min(vertex, lo - 1)] * (lo > 0) + [max(vertex, hi)] * (hi < sector_dimension(params, parity))
    return min(((m * m - s * (s + 1)) / n - params.h * m + (1 - params.gamma) * (1 - s) / (4 * n)
                for m in (top - 2.0 * row for row in rows)), default=math.inf)
