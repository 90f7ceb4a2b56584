import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import oracles
from lmgfisher import metrology, solver
from lmgfisher.solver import (
    ConvergenceError,
    GroundState,
    TridiagonalMatrix,
    ground_eigenpair,
    lmg_ground_state,
)
from lmgfisher.spincore import EVEN, ODD, ModelParams, build_sector, build_sector_matrix


def random_tridiagonal(rng, dim):
    return TridiagonalMatrix(
        diagonal=rng.normal(0.0, 2.0, dim),
        offdiagonal=rng.normal(0.0, 1.0, max(dim - 1, 0)),
    )


def test_tridiagonal_validation():
    with pytest.raises(ValueError):
        TridiagonalMatrix(diagonal=np.array([]), offdiagonal=np.array([]))
    with pytest.raises(ValueError):
        TridiagonalMatrix(diagonal=np.array([1.0, 2.0]), offdiagonal=np.array([]))
    with pytest.raises(ValueError):
        TridiagonalMatrix(diagonal=np.array([np.inf]), offdiagonal=np.array([]))


def test_ground_eigenpair_trivial_1x1():
    energy, vec = ground_eigenpair(TridiagonalMatrix(np.array([5.0]), np.array([])))
    assert energy == 5.0
    np.testing.assert_array_equal(vec, [1.0])


def test_ground_eigenpair_2x2_closed_form():
    t = TridiagonalMatrix(np.array([-4.25, 3.75]), np.array([-0.25]))
    energy, vec = ground_eigenpair(t)
    expected = -0.25 - math.sqrt(16.0625)
    assert energy == pytest.approx(expected, rel=1e-14)
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
    # closed-form eigenvector direction
    residual = t.matvec(vec) - energy * vec
    assert np.linalg.norm(residual) < 1e-12


def test_ground_eigenpair_matches_dense_oracle_d12():
    rng = np.random.default_rng(7)
    t = random_tridiagonal(rng, 12)
    e1, v1 = ground_eigenpair(t)
    e2, v2 = oracles.tridiagonal_ground(t)
    assert e1 == pytest.approx(e2, abs=1e-10)
    overlap = abs(float(v1 @ v2))
    assert overlap == pytest.approx(1.0, abs=1e-8)


def test_solver_oracle_agreement_random_sweep():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        dim = int(rng.integers(1, 33))
        t = random_tridiagonal(rng, dim)
        e1, v1 = ground_eigenpair(t)
        e2, v2 = oracles.tridiagonal_ground(t)
        assert e1 == pytest.approx(e2, abs=1e-10 * max(1.0, abs(e2)))
        assert abs(float(v1 @ v2)) == pytest.approx(1.0, abs=1e-8)


def test_convergence_error_carries_residual(monkeypatch):
    # a zero tolerance makes the residual gate fail on any rounding
    monkeypatch.setattr(solver, "_RESIDUAL_FACTOR", 0.0)
    t = TridiagonalMatrix(np.array([1.0, -2.0, 0.5]), np.array([0.3, -0.4]))
    with pytest.raises(ConvergenceError) as err:
        ground_eigenpair(t)
    assert math.isfinite(err.value.residual)


@pytest.mark.parametrize("t", [
    TridiagonalMatrix(np.array([0.0, 1.0, 5.0, 6.0]), np.full(3, -0.1)),
    # A double well: its two levels lie 4e-11 apart, inside the residual
    # gate of 5e-10 but far above the bisection width of 1e-13.
    TridiagonalMatrix(np.array([0.0, 5.0, 0.0]), np.full(2, -1e-5)),
], ids=["separated", "inside-the-gate"])
def test_warm_start_on_an_excited_level_returns_the_lowest(t):
    # Started on the second level, the Rayleigh-quotient passes settle
    # there and meet the residual gate; only the isolation test sees the
    # level below, and bisection then finds it.
    levels, vectors = np.linalg.eigh(t.to_dense())
    e = t.offdiagonal
    settled = solver._twisted_solves(t, (e * e).tolist(), solver._pivot_floor(e), float(levels[1]),
                                     solver._WARM_PASSES, solver._BISECTION_RELTOL)
    assert settled[0] == pytest.approx(levels[1], abs=1e-15)
    assert settled[2] <= solver._residual_tolerance(t)
    energy, vec = ground_eigenpair(t, start=float(levels[1]))
    assert energy == pytest.approx(levels[0], abs=1e-15)
    assert abs(float(vec @ vectors[:, 0])) == pytest.approx(1.0, abs=1e-9)


def test_warm_starts_anywhere_give_the_smallest_eigenpair():
    # Starts below, inside and above the spectrum: each solve either keeps
    # the refined pair or falls back to bisection, and both end on the
    # smallest eigenpair.
    rng = np.random.default_rng(20261018)
    for _ in range(100):
        t = random_tridiagonal(rng, int(rng.integers(1, 33)))
        e_ref, v_ref = oracles.tridiagonal_ground(t)
        levels = np.linalg.eigvalsh(t.to_dense())
        for start in (float(rng.uniform(levels[0] - 3.0, levels[-1] + 3.0)), float(levels[0]) + 1e-9):
            energy, vec = ground_eigenpair(t, start=start)
            assert energy == pytest.approx(e_ref, abs=1e-10 * max(1.0, abs(e_ref)))
            assert abs(float(vec @ v_ref)) == pytest.approx(1.0, abs=1e-8)


def test_bisection_pair_is_the_eigenvector_at_large_n():
    # At N = 1e9, h = 1 the bisection shift is 5e-5 from the lowest level
    # and the next one lies 1.6e-3 above it: one twisted pass from there
    # left chi2 2.5e-4 off.  Without a start, on the rows of the window
    # that lmg_ground_state accepts, the pair must be scipy's.
    linalg = pytest.importorskip("scipy.linalg")
    params = ModelParams(n_spins=10**9, gamma=0.5, h=1.0)
    gs = lmg_ground_state(params)
    t = build_sector_matrix(params, gs.sector())
    energy, vec = ground_eigenpair(t)
    _, ref = linalg.eigh_tridiagonal(t.diagonal, t.offdiagonal, select="i", select_range=(0, 0))

    def chi2(v):
        return metrology.report(dataclasses.replace(gs, amplitudes=v)).chi2

    assert chi2(vec) == pytest.approx(chi2(ref[:, 0]), rel=1e-8)


def test_lmg_ground_state_n2_isotropic():
    gs = lmg_ground_state(ModelParams(2, 1.0, 2.0))
    assert gs.parity == EVEN
    assert gs.energy == pytest.approx(-2.5, abs=1e-12)
    np.testing.assert_allclose(gs.amplitudes, [1.0, 0.0], atol=1e-12)


def test_lmg_ground_state_isotropic_coordinate_vector():
    gs = lmg_ground_state(ModelParams(100, 1.0, 0.5))
    m = gs.sector().m_values
    peak = int(np.argmax(np.abs(gs.amplitudes)))
    assert m[peak] == 25.0
    assert gs.amplitudes[peak] == pytest.approx(1.0, abs=1e-12)
    others = np.delete(gs.amplitudes, peak)
    assert np.max(np.abs(others)) < 1e-12


def test_lmg_ground_state_against_dense_block():
    gs = lmg_ground_state(ModelParams(8, 0.5, 0.5))
    _, energy, _ = oracles.dense_ground(8, 0.5, 0.5)
    assert gs.energy == pytest.approx(energy, abs=1e-10)


@pytest.mark.parametrize("n", [3, 10, 201, 10001])
def test_largest_accepted_field_solves(n):
    # h N just inside the float range: the ground state is |S, S>, E = -h S
    h = 1.7e308 / n
    gs = lmg_ground_state(ModelParams(n, 0.5, h))
    assert gs.parity == EVEN
    assert gs.energy == pytest.approx(-h * n / 2.0, rel=1e-15)
    assert gs.amplitudes[0] == 1.0


@pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("h", [0.0, 0.5, 1.0, 2.0])
def test_oracle_equivalence_up_to_n16(gamma, h):
    for n in (2, 3, 5, 8, 11, 16):
        gs = lmg_ground_state(ModelParams(n, gamma, h))
        _, energy, _ = oracles.dense_ground(n, gamma, h)
        assert gs.energy == pytest.approx(energy, abs=1e-10)


@pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("h", [0.0, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("n", [3, 7, 20])
def test_variational_bound(gamma, h, n):
    # energy of the fully polarized state |S, S>
    s = n / 2.0
    polarized = -((1.0 + gamma) / (2.0 * n)) * s - h * s
    gs = lmg_ground_state(ModelParams(n, gamma, h))
    assert gs.energy <= polarized + 1e-12 * max(1.0, abs(polarized))


@pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("h", [1.5, 2.0])
def test_symmetric_phase_polarized_character(gamma, h):
    for n in (10, 31):
        gs = lmg_ground_state(ModelParams(n, gamma, h))
        m = gs.sector().m_values
        assert m[0] == gs.params.total_spin  # even sector leads with M = S
        assert gs.parity == EVEN
        assert abs(gs.amplitudes[0]) > np.max(np.abs(gs.amplitudes[1:]))


@pytest.mark.parametrize("gamma,h", [(0.5, 0.5), (0.0, 0.25)])
def test_broken_phase_quasi_degeneracy(gamma, h):
    # The doublet splitting decays exponentially with N (its sign
    # oscillates with N for gamma > 0), so compare magnitudes and stop
    # distinguishing once below the eigenvalue noise floor.
    gaps = []
    floors = []
    for n in (20, 40, 80, 160):
        params = ModelParams(n, gamma, h)
        energies = {}
        for parity in (EVEN, ODD):
            block = build_sector_matrix(params, build_sector(params, parity))
            energies[parity], _ = ground_eigenpair(block)
        gaps.append(abs(energies[ODD] - energies[EVEN]))
        floors.append(1e-12 * max(1.0, abs(energies[EVEN])))
    for (a, b), floor in zip(zip(gaps, gaps[1:]), floors[1:]):
        assert b < a or b <= floor


def test_ground_state_invariants_across_grid():
    for n in (5, 12, 37):
        for gamma in (0.0, 0.5, 1.0):
            for h in (0.0, 0.7, 1.0, 1.8):
                gs = lmg_ground_state(ModelParams(n, gamma, h))
                assert gs.amplitudes.dtype == np.float64
                assert np.linalg.norm(gs.amplitudes) == pytest.approx(1.0, abs=1e-12)
                block = build_sector_matrix(gs.params, gs.sector())
                residual = np.linalg.norm(block.matvec(gs.amplitudes) - gs.energy * gs.amplitudes)
                bound = np.max(np.abs(block.diagonal))
                if block.offdiagonal.size:
                    bound += 2.0 * np.max(np.abs(block.offdiagonal))
                assert residual <= 1e-10 * max(1.0, bound)
                assert np.all(gs.amplitudes >= 0.0)  # off-diagonal <= 0: Perron-Frobenius


def test_ground_state_sector_roundtrip():
    gs = lmg_ground_state(ModelParams(9, 0.3, 0.4))
    sector = gs.sector()
    assert sector.parity == gs.parity
    assert sector.m_values.size == gs.amplitudes.size
    assert isinstance(gs, GroundState)


def record_block_rows(monkeypatch):
    """Wrap solver.ground_eigenpair; the returned list collects each solved dimension."""
    rows = []
    solve = solver.ground_eigenpair

    def recording(t, **kwargs):
        rows.append(t.dimension)
        return solve(t, **kwargs)

    monkeypatch.setattr(solver, "ground_eigenpair", recording)
    return rows


@pytest.mark.parametrize("gamma", [0.0, 0.5, 0.99, 1.0])
@pytest.mark.parametrize("h", [0.0, 0.3, 1.0, 1.5, 3.0])
def test_window_path_matches_dense_oracle(gamma, h):
    for n in (40, 161, 600):
        gs = lmg_ground_state(ModelParams(n, gamma, h))
        m, energy, vec = oracles.dense_ground(n, gamma, h)
        assert gs.energy == pytest.approx(energy, abs=1e-10 * max(1.0, abs(energy)))
        # The padded window vector meets the whole block's residual gate.
        block = build_sector_matrix(gs.params, build_sector(gs.params, gs.parity))
        padded = gs.block_amplitudes()
        residual = np.linalg.norm(block.matvec(padded) - gs.energy * padded)
        assert residual <= oracles.residual_tolerance(block)
        full = np.zeros(n + 1)
        full[np.isin(m, gs.sector().m_values)] = gs.amplitudes
        np.testing.assert_allclose(np.abs(full), np.abs(vec), atol=1e-8)
        parity_sign = np.where(np.round(n / 2.0 - m).astype(int) % 2 == 0, 1.0, -1.0)
        oracle_parity = EVEN if float(vec @ (parity_sign * vec)) > 0.0 else ODD
        assert gs.parity == oracle_parity


def test_symmetric_phase_solves_a_strict_sub_block(monkeypatch):
    rows = record_block_rows(monkeypatch)
    gs = lmg_ground_state(ModelParams(600, 0.5, 1.5))
    assert rows and max(rows) < 301  # each parity block has 301 or 300 rows
    assert gs.amplitudes.size < gs.block_amplitudes().size == 301


def test_misplaced_window_widens_to_the_ground_state():
    # h = 0.3: the block's ground state sits mid-block, far from row 0, so
    # the first windows fail certification and must widen, not return a
    # window-local state.
    params = ModelParams(600, 0.5, 0.3)
    energy, vec = window_solve(solver._Block(params, EVEN), centre=0)
    e_ref, v_ref = oracles.tridiagonal_ground(build_sector_matrix(params, build_sector(params, EVEN)))
    assert energy == pytest.approx(e_ref, abs=1e-10 * abs(e_ref))
    assert abs(float(vec @ v_ref)) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("n,gamma,h", [(600, 0.9, 1.0), (1000, 0.99, 0.8), (2000, 0.5, 0.3)])
def test_window_drops_only_negligible_amplitudes(n, gamma, h):
    # A window whose edges held more than 1e-17 of the peak could still pass
    # the residual gate; these points moved by up to 2e-8 when it did.
    gs = lmg_ground_state(ModelParams(n, gamma, h))
    energy, whole = ground_eigenpair(build_sector_matrix(gs.params, build_sector(gs.params, gs.parity)))
    assert gs.energy == pytest.approx(energy, rel=1e-15)
    np.testing.assert_allclose(gs.block_amplitudes(), whole, rtol=0.0, atol=1e-13)


def window_solve(block, centre):
    """solver._window_eigenpair's pair, its vector padded to the whole block."""
    offset, energy, v = solver._window_eigenpair(block, centre)
    vec = np.zeros(block.dimension)
    vec[offset:offset + v.size] = v
    return energy, vec


def test_window_on_a_local_well_is_not_certified():
    # A convex well at row 50, and a deeper state on the block's last row.
    # A window around row 50 holds a state that decays below 1e-17 at both
    # edges and meets the residual gate, and every row outside it but the
    # last is diagonally dominant.  Only the slack floor, which covers
    # every row outside the window, the end row too, shows the deeper
    # state.  Mirrored, the deeper state sits on the first row.
    rows = np.arange(301.0)
    d = 0.01 * (rows - 50.0) ** 2
    d[-1] = -5.0
    for mirrored in (False, True):
        t = TridiagonalMatrix(d[::-1].copy() if mirrored else d, np.full(300, -0.5))
        energy, vec = window_solve(oracles.ArrayBlock(t), centre=250 if mirrored else 50)
        e_ref, v_ref = oracles.tridiagonal_ground(t)
        assert energy == pytest.approx(e_ref, abs=1e-10 * abs(e_ref))
        assert abs(float(vec @ v_ref)) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("mirrored", [False, True])
def test_window_edge_coupling_hides_a_lower_eigenvalue(mirrored):
    # Rows 33 and 34 hold the pair [[10, -5], [-5, 0.5]], whose lower
    # eigenvalue (about -1.65) lies below the well at row 50.  The first
    # window, rows 34..66, holds row 34 but not row 33.  Its state decays
    # below 1e-17 at both edges, on its own rows nothing lies below its
    # energy, and every row outside it is diagonally dominant, with a
    # slack that is convex and falls toward the window (rows 0..33 rise
    # as 5 (33 - i)^2).  Only the Schur term of the coupling to row 33
    # shows the pair, so the window must widen.  Mirrored, the pair sits
    # below the window's last row.
    d = np.full(301, 100.0)
    d[:34] = 10.0 + 5.0 * (33.0 - np.arange(34.0)) ** 2
    d[[34, 50]] = [0.5, 0.0]
    e = np.full(300, -0.5)
    e[33] = -5.0
    if mirrored:
        d, e = d[::-1].copy(), e[::-1].copy()
    t = TridiagonalMatrix(d, e)
    energy, vec = window_solve(oracles.ArrayBlock(t), centre=250 if mirrored else 50)
    e_ref, v_ref = oracles.tridiagonal_ground(t)
    assert energy == pytest.approx(e_ref, abs=1e-10 * abs(e_ref))
    assert abs(float(vec @ v_ref)) == pytest.approx(1.0, abs=1e-8)


def definite_matches_sturm_count(diagonal, e, x):
    """solver._definite on T - xI, checked against a Sturm count of 0; returns it."""
    diagonal, e = np.asarray(diagonal, dtype=float).tolist(), np.asarray(e, dtype=float)
    pivmin = oracles.pivot_floor(e)
    verdict = solver._definite(diagonal, (e * e).tolist(), x, pivmin)
    assert verdict == (oracles.sturm_count(diagonal, e.tolist(), x, pivmin) == 0), (diagonal, e, x)
    return verdict


def test_definite_is_a_sturm_count_of_zero():
    tiny = float(np.finfo(float).tiny)
    assert not definite_matches_sturm_count([2.0], [], 2.0)  # a zero first pivot
    assert not definite_matches_sturm_count([1.0, 1.0], [1.0], 0.0)  # a zero second pivot
    assert not definite_matches_sturm_count([1e-310], [], 0.0)  # subnormal, below the floor
    assert definite_matches_sturm_count([tiny], [], 0.0)  # exactly the floor
    assert not definite_matches_sturm_count([-tiny], [], 0.0)
    assert definite_matches_sturm_count([3.0, 2.0, 3.0], [-1.0, -1.0], 0.0)
    # LMG windows at x one ulp either side of, and at, each eigenvalue.
    rng = np.random.default_rng(20261018)
    verdicts = set()
    for _ in range(200):
        params = ModelParams(int(rng.integers(2, 400)), float(rng.uniform(0.0, 1.0)),
                             float(rng.uniform(0.0, 3.0)))
        block = solver._Block(params, EVEN if rng.integers(2) else ODD)
        size = int(rng.integers(1, min(block.dimension, 12) + 1))
        lo = int(rng.integers(0, block.dimension - size + 1))
        t = block.rows(lo, lo + size)
        for value in np.linalg.eigvalsh(t.to_dense()):
            for x in (np.nextafter(value, -np.inf), value, np.nextafter(value, np.inf)):
                verdicts.add(definite_matches_sturm_count(t.diagonal, t.offdiagonal, float(x)))
    assert verdicts == {False, True}


def certified(block, lo, hi, x, tol):
    """solver._window_certified on rows lo:hi, given the rows it reads."""
    ext = block.rows(max(lo - 2, 0), min(hi + 2, block.dimension))
    return solver._window_certified(block, ext, lo, hi, x, tol)


def certificate_windows(dim):
    """Windows touching either block end, and one in the middle, of a few sizes."""
    out = set()
    for size in {1, 3, min(33, dim)}:
        if size <= dim:
            for lo in (0, 1, 2, 3, (dim - size) // 2, dim - size - 3, dim - size - 2,
                       dim - size - 1, dim - size):
                if 0 <= lo <= dim - size:
                    out.add((lo, lo + size))
    return sorted(out)


def test_certificate_reads_the_slack_beyond_the_window_edges():
    # A steep convex well whose non-dominant rows R lie within a few rows of
    # row 150.  A window away from it has dominant rows beside its edges,
    # but rows further beyond one edge are not dominant, so the slack floor
    # over the rows outside it stays below x and the window is not
    # certified.
    rows = np.arange(301.0)
    t = TridiagonalMatrix(0.01 * (rows - 150.0) ** 2, np.full(300, -0.5))
    block = oracles.ArrayBlock(t)
    tol = block.tolerance()
    x = oracles.tridiagonal_ground(t)[0] - 1e-3
    verdicts = []
    for lo in range(0, 269, 3):
        verdict = certified(block, lo, lo + 33, x, tol)
        assert verdict == oracles.window_certified(t, lo, lo + 33, x), lo
        verdicts.append(verdict)
    assert any(verdicts) and not all(verdicts)


CERTIFICATE_GRID = [(n, gamma) for n in (3, 10, 101, 600, 10001) for gamma in (0.0, 0.5, 0.99, 1.0)]


@pytest.mark.parametrize("n,gamma", CERTIFICATE_GRID)
def test_block_tolerance_is_the_whole_block_gate(n, gamma):
    # The closed form is at least the whole block's gate (up to the rounding
    # of the entries) and at most 4 times it.
    eps = float(np.finfo(float).eps)
    for h in np.linspace(0.0, 3.0, 13):
        params = ModelParams(n, gamma, float(h))
        for parity in (EVEN, ODD):
            gate = oracles.residual_tolerance(build_sector_matrix(params, build_sector(params, parity)))
            assert gate * (1.0 - 4.0 * eps) <= solver._Block(params, parity).tolerance() <= 4.0 * gate


@pytest.mark.parametrize("n,gamma", CERTIFICATE_GRID)
def test_certificate_matches_the_whole_block_oracle(n, gamma):
    # The window certificate reads two rows beside each window edge and the
    # closed-form slack floor; the oracle tests every row of the whole
    # block.  x is the window's own energy minus the block's tolerance, as
    # in the solver.
    verdicts = []
    for h in np.linspace(0.0, 3.0, 13):
        params = ModelParams(n, gamma, float(h))
        for parity in (EVEN, ODD):
            block = solver._Block(params, parity)
            whole = build_sector_matrix(params, build_sector(params, parity))
            tol = block.tolerance()
            for lo, hi in certificate_windows(block.dimension):
                x = ground_eigenpair(block.rows(lo, hi))[0] - tol
                verdict = certified(block, lo, hi, x, tol)
                assert verdict == oracles.window_certified(whole, lo, hi, x), (h, parity, lo, hi)
                verdicts.append(verdict)
    assert any(verdicts) and not all(verdicts)


def block_scale(block):
    """The block's scale h S + (S+1)/2, of which its tolerance is 1e-10."""
    return block.tolerance() / solver._RESIDUAL_FACTOR


@pytest.mark.parametrize("n,gamma", CERTIFICATE_GRID)
def test_slack_floor_bounds_every_row_outside_the_window(n, gamma):
    # The closed form is at most the least row sum outside the window, up
    # to rounding, and at most 0.5 below it.
    eps = float(np.finfo(float).eps)
    for h in np.linspace(0.0, 3.0, 13):
        params = ModelParams(n, gamma, float(h))
        for parity in (EVEN, ODD):
            block = solver._Block(params, parity)
            whole = oracles.ArrayBlock(build_sector_matrix(params, build_sector(params, parity)))
            rounding = 8.0 * eps * block_scale(block)
            for lo, hi in certificate_windows(block.dimension):
                exact = whole.slack_floor(lo, hi)
                floor = block.slack_floor(lo, hi)
                assert exact - 0.5 - rounding <= floor <= exact + rounding, (h, parity, lo, hi)


@pytest.mark.parametrize("n", [10**8 + 1, 10**9])
def test_slack_floor_at_large_n_matches_built_rows(n):
    # No whole block is built: runs of 100 rows at both block ends and
    # around the floor's vertex h S.  The floor over the rows on one side
    # of a window is the closed form at the row nearest the vertex, so a
    # window that ends next to row i reads it at row i alone.
    eps = float(np.finfo(float).eps)
    for gamma in (0.0, 0.5, 0.99):
        for h in (0.0, 0.5, 1.0):
            for parity in (EVEN, ODD):
                block = solver._Block(ModelParams(n, gamma, h), parity)
                dim, centre = block.dimension, block.centre
                rounding = 8.0 * eps * block_scale(block)
                for start in (0, max(centre - 50, 0), dim - 100):
                    lo, hi = max(start - 1, 0), min(start + 101, dim)
                    t = block.rows(lo, hi)
                    sums = t.diagonal.copy()
                    sums[:-1] -= np.abs(t.offdiagonal)
                    sums[1:] -= np.abs(t.offdiagonal)
                    for i in range(start, start + 100):
                        floor = block.slack_floor(i + 1, dim) if i < centre else block.slack_floor(0, i)
                        exact = float(sums[i - lo])
                        assert exact - 0.5 - rounding <= floor <= exact + rounding, (gamma, h, parity, i)


@pytest.mark.parametrize("h", [0.5, 1.0])
def test_isotropic_large_n_accepts_the_first_window(monkeypatch, h):
    # At gamma = 1 the ground state is one Dicke row, which the first
    # 33-row window of each block holds with room to spare, though the
    # diagonal is nearly flat beside it: neither block should widen.
    rows = record_block_rows(monkeypatch)
    lmg_ground_state(ModelParams(10**8, 1.0, h))
    assert rows == [33, 33]


def test_broken_phase_first_window_holds_the_state(monkeypatch):
    # The first half-width, 4 sqrt(N sqrt((1-h^2)(1-gamma))) rows, is about
    # 8 standard deviations of the exact state's M; the amplitudes fall to
    # 1e-17 of the peak within about 6.25 of them.  So each parity block
    # accepts its first window, one solve each.
    rows = record_block_rows(monkeypatch)
    rng = np.random.default_rng(20261018)
    for _ in range(24):
        params = ModelParams(int(10 ** rng.uniform(2.5, 5.5)), float(rng.choice([0.0, rng.uniform(), 0.99])),
                             float(rng.uniform(0.0, 0.95)))
        rows.clear()
        gs = lmg_ground_state(params)
        m, p = gs.sector().m_values, gs.amplitudes ** 2
        sigma = math.sqrt(float(p @ (m - p @ m) ** 2))
        half = solver._first_window(params)[0]
        assert half >= 6.0 * sigma, params
        assert len(rows) == 2, params


@pytest.mark.parametrize("h", [0.5, 1.5])
def test_large_n_solves_one_window_per_block_without_bisection(monkeypatch, h):
    # Each block's one window solve starts from its Bogoliubov level (the
    # odd block's is one boson up in the symmetric phase) and keeps its
    # refined pair: no bisection runs, and the definiteness tests
    # (isolation and certificate, two per block) read twice the rows of
    # the two accepted windows.
    rows = record_block_rows(monkeypatch)
    counted = []
    definite = solver._definite

    def recording(diagonal, off_squared, x, pivmin):
        counted.append(len(diagonal))
        return definite(diagonal, off_squared, x, pivmin)

    def no_bisection(*args):
        raise AssertionError("bisection ran")

    monkeypatch.setattr(solver, "_definite", recording)
    monkeypatch.setattr(solver, "_bisect_smallest", no_bisection)
    lmg_ground_state(ModelParams(10**6, 0.5, h))
    assert len(rows) == 2
    assert sum(counted) <= 2 * sum(rows)


def test_critical_point_work_stays_sublinear(monkeypatch):
    # Whole-block solves would hand 50001 + 50001 rows to the eigensolver,
    # a whole-block certificate would test 50001 rows, and building the
    # whole blocks would make 50001 rows each.  A window builds two more
    # rows beside each edge.
    rows = record_block_rows(monkeypatch)
    counted = []
    definite = solver._definite

    def recording(diagonal, off_squared, x, pivmin):
        counted.append(len(diagonal))
        return definite(diagonal, off_squared, x, pivmin)

    built = []
    build = solver.build_sector_matrix

    def building(params, sector):
        built.append(sector.dimension)
        return build(params, sector)

    monkeypatch.setattr(solver, "_definite", recording)
    monkeypatch.setattr(solver, "build_sector_matrix", building)
    lmg_ground_state(ModelParams(100001, 0.5, 1.0))
    assert sum(rows) < 5000
    assert max(counted) <= max(rows)
    assert max(built) <= max(rows) + 4


def test_large_ground_state_memory_follows_the_window():
    # At N = 1e8 one whole parity block would take 400 MB as float64.
    for h in (1.0, 1.5):
        tracemalloc.start()
        try:
            metrology.report(lmg_ground_state(ModelParams(10**8, 0.5, h)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


def test_random_points_match_the_dense_blocks(monkeypatch):
    # Seeded draws over N in [130, 800], where blocks have 65 to 401 rows
    # and the solver tries windows first, checked against eigh on both
    # whole blocks.
    rows = record_block_rows(monkeypatch)
    rng = np.random.default_rng(20261018)
    windowed = 0
    for _ in range(16):
        params = ModelParams(int(rng.integers(130, 801)), float(rng.uniform(0.0, 1.0)),
                             float(rng.uniform(0.0, 3.0)))
        rows.clear()
        gs = lmg_ground_state(params)
        windowed += max(rows) < params.n_spins // 2
        ref = {p: oracles.tridiagonal_ground(build_sector_matrix(params, build_sector(params, p)))[0]
               for p in (EVEN, ODD)}
        scale = max(1.0, abs(ref[EVEN]), abs(ref[ODD]))
        assert gs.energy == pytest.approx(min(ref.values()), abs=1e-10 * scale)
        assert gs.energy == pytest.approx(ref[gs.parity], abs=1e-10 * scale)
        # The tie rule: odd only when lower by more than 1e-12 |E|.  Gaps
        # within rounding of that threshold could go either way.
        tie = solver._DEGENERACY_RELTOL * scale
        gap = ref[ODD] - ref[EVEN]
        if abs(gap + tie) > 1e-13 * scale:
            assert gs.parity == (ODD if gap < -tie else EVEN)
        assert np.all(gs.amplitudes >= 0.0)
        rep = metrology.report(gs)
        assert all(math.isfinite(getattr(rep, f.name)) for f in dataclasses.fields(rep))
    assert windowed >= 1
