"""Brute-force constructions used only as independent test oracles.

Three routes that never touch the package's eigensolver:

* full 2^N Pauli sums projected onto the maximal-spin Dicke block
  (exhaustive, N <= 8);
* dense (N+1)-dimensional spin matrices built from ladder elements and
  diagonalized with numpy.linalg.eigh (N <= a few hundred);
* numpy.linalg.eigh on a densified tridiagonal matrix.

The first two order the Dicke basis by descending M, like the package.
"""

import numpy as np
from math import comb

from lmgfisher.spincore import sector_dimension

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex) / 2.0
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex) / 2.0
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex) / 2.0


def collective_operator(n, single):
    """sum_i over sites of a single-site operator in the 2^n product space."""
    dim = 2**n
    total = np.zeros((dim, dim), dtype=complex)
    for site in range(n):
        op = np.ones((1, 1), dtype=complex)
        for j in range(n):
            op = np.kron(op, single if j == site else np.eye(2))
        total += op
    return total


def full_pauli_hamiltonian(n, gamma, h):
    """H = -(S_x^2 + gamma S_y^2)/N - h S_z over the full 2^n space."""
    sx = collective_operator(n, SX)
    sy = collective_operator(n, SY)
    sz = collective_operator(n, SZ)
    return -(sx @ sx + gamma * (sy @ sy)) / n - h * sz


def dicke_basis(n):
    """Columns |S=n/2, M> for descending M in the product basis.

    Bit i set means site i is flipped down, so M = n/2 - popcount.
    """
    cols = np.zeros((2**n, n + 1))
    for k in range(n + 1):  # k = S - M flipped spins
        amp = 1.0 / np.sqrt(comb(n, k))
        for state in range(2**n):
            if bin(state).count("1") == k:
                cols[state, k] = amp
    return cols


def projected_pauli_block(n, gamma, h):
    """Full Pauli H projected onto the S = n/2 block (descending M)."""
    basis = dicke_basis(n)
    block = basis.T @ full_pauli_hamiltonian(n, gamma, h) @ basis
    assert np.max(np.abs(block.imag)) < 1e-12
    return block.real


def spin_matrices(n):
    """Dense S = n/2 spin matrices over descending M, from ladder elements."""
    s = n / 2.0
    m = s - np.arange(n + 1)
    dim = n + 1
    sp = np.zeros((dim, dim))
    for i in range(1, dim):
        sp[i - 1, i] = np.sqrt(s * (s + 1.0) - m[i] * (m[i] + 1.0))
    sm = sp.T
    sx = (sp + sm) / 2.0
    sy = (sp - sm) / 2.0j
    sz = np.diag(m)
    return m, sx, sy, sz


def dense_block_hamiltonian(n, gamma, h):
    """(m_values, H) for the maximal-spin block as a dense real matrix."""
    m, sx, sy, sz = spin_matrices(n)
    ham = -((sx @ sx).real + gamma * (sy @ sy).real) / n - h * sz
    return m, ham


def to_dense(t):
    """A TridiagonalMatrix as a dense array."""
    dense = np.diag(t.diagonal)
    if t.offdiagonal.size:
        dense += np.diag(t.offdiagonal, 1) + np.diag(t.offdiagonal, -1)
    return dense


def matvec(t, v):
    """T v for a TridiagonalMatrix t, through its dense form."""
    return to_dense(t) @ v


def tridiagonal_ground(t):
    """Smallest eigenpair of a TridiagonalMatrix via numpy.linalg.eigh on to_dense(t)."""
    w, v = np.linalg.eigh(to_dense(t))
    return float(w[0]), v[:, 0]


def block_amplitudes(gs):
    """A GroundState's amplitudes over its whole parity block, zero outside the support."""
    vec = np.zeros(sector_dimension(gs.params, gs.parity))
    vec[gs.offset:gs.offset + gs.amplitudes.size] = gs.amplitudes
    return vec


def bogoliubov_ground_energy(n, gamma, h):
    """Ground energy to O(1) from the Holstein-Primakoff expansion with one
    Bogoliubov mode, away from h = 1 (Dusuel & Vidal, PRL 93, 237204 (2004)):

        broken (h < 1):     E_B = -(N/4)(1+h^2) + (sqrt((1-h^2)(1-gamma)) - 1)/2,
        symmetric (h > 1):  E_B = -hN/2 + (sqrt(h-1) sqrt(h-gamma) - h)/2.

    The exact ground energy is E_B + O(1/N).
    """
    if h < 1.0:
        return -0.25 * n * (1.0 + h * h) + 0.5 * (np.sqrt((1.0 - h * h) * (1.0 - gamma)) - 1.0)
    return -0.5 * h * n + 0.5 * (np.sqrt(h - 1.0) * np.sqrt(h - gamma) - h)


def dense_ground(n, gamma, h):
    """Ground eigenpair of the dense block; within a degenerate ground
    subspace the even spin-flip parity eigenvector is selected (matching
    the library's tie-break convention)."""
    m, ham = dense_block_hamiltonian(n, gamma, h)
    w, v = np.linalg.eigh(ham)
    scale = max(1.0, abs(w[0]))
    members = np.nonzero(w - w[0] <= 1e-11 * scale)[0]
    if members.size == 1:
        return m, w[0], v[:, members[0]]
    parity_sign = np.where(np.round(n / 2.0 - m).astype(int) % 2 == 0, 1.0, -1.0)
    sub = v[:, members]
    pw, pv = np.linalg.eigh(sub.T @ (parity_sign[:, None] * sub))
    even = int(np.argmax(pw))  # eigenvalue +1 = even parity
    vec = sub @ pv[:, even]
    return m, w[0], vec / np.linalg.norm(vec)


def dense_observables(n, gamma, h):
    """(energy, moments dict) of the dense-oracle ground state."""
    m, sx, sy, sz = spin_matrices(n)
    _, energy, g = dense_ground(n, gamma, h)
    sy2 = (sy @ sy).real
    cross = (sx @ sy + sy @ sx) / 1.0
    return energy, {
        "sz_mean": float(g @ sz @ g),
        "sz2": float(g @ (sz @ sz) @ g),
        "sx2": float(g @ (sx @ sx).real @ g),
        "sy2": float(g @ sy2 @ g),
        "cross": float((g @ cross @ g).real),
    }


def pauli_ground_cross_term(n, gamma, h):
    """<{S_x, S_y}> of the 2^n Pauli ground state (complex eigenvector)."""
    sx = collective_operator(n, SX)
    sy = collective_operator(n, SY)
    ham = full_pauli_hamiltonian(n, gamma, h)
    w, v = np.linalg.eigh(ham)
    g = v[:, 0]
    value = g.conj() @ (sx @ sy + sy @ sx) @ g
    return complex(value)


def residual_tolerance(t):
    """The residual gate 1e-10 max(1, ||diag||_inf + 2 ||off||_inf) of t."""
    scale = float(np.max(np.abs(t.diagonal)))
    if t.offdiagonal.size:
        scale += 2.0 * float(np.max(np.abs(t.offdiagonal)))
    return 1e-10 * max(1.0, scale)


def least_row_sum_outside(t, lo, hi, x=0.0):
    """The least d_i - x - |e_(i-1)| - |e_i| over the rows of t outside
    lo:hi; inf when there are none."""
    ae = np.abs(t.offdiagonal)
    slack = t.diagonal - x
    slack[:-1] -= ae
    slack[1:] -= ae
    return min(slack[:lo].min(initial=np.inf), slack[hi:].min(initial=np.inf))


def dominant_outside(t, lo, hi, x):
    """Whole-block test that every row of t outside lo:hi is strictly
    diagonally dominant in t - xI: d_i - x > |e_(i-1)| + |e_i|."""
    return least_row_sum_outside(t, lo, hi, x) > 0.0


class ArrayBlock:
    """A whole TridiagonalMatrix served the way the solver reads an LMG
    block: `dimension`, `rows(lo, hi)` in fresh arrays and the exact
    `slack_floor(lo, hi)`."""

    def __init__(self, t):
        self.t = t
        self.dimension = t.dimension

    def rows(self, lo, hi):
        return type(self.t)(self.t.diagonal[lo:hi].copy(), self.t.offdiagonal[lo:hi - 1].copy())

    def slack_floor(self, lo, hi):
        return least_row_sum_outside(self.t, lo, hi)
