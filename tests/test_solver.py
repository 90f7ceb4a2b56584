import math

import numpy as np
import pytest

import oracles
from lmgfisher import solver
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
                significant = np.abs(gs.amplitudes) > 1e-6 * np.max(np.abs(gs.amplitudes))
                first = int(np.nonzero(significant)[0][0])
                assert gs.amplitudes[first] > 0.0


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

    def recording(t):
        rows.append(t.dimension)
        return solve(t)

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
        block = build_sector_matrix(gs.params, gs.sector())
        residual = np.linalg.norm(block.matvec(gs.amplitudes) - gs.energy * gs.amplitudes)
        assert residual <= solver._residual_tolerance(block)
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
    assert gs.amplitudes.size == 301


def test_misplaced_window_widens_to_the_ground_state():
    # h = 0.3: the block's ground state sits mid-block, far from row 0, so
    # the first windows fail certification and must widen, not return a
    # window-local state.
    params = ModelParams(600, 0.5, 0.3)
    block = build_sector_matrix(params, build_sector(params, EVEN))
    energy, vec = solver._window_eigenpair(block, centre=0)
    e_ref, v_ref = oracles.tridiagonal_ground(block)
    assert energy == pytest.approx(e_ref, abs=1e-10 * abs(e_ref))
    assert abs(float(vec @ v_ref)) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("n,gamma,h", [(600, 0.9, 1.0), (1000, 0.99, 0.8), (2000, 0.5, 0.3)])
def test_window_drops_only_negligible_amplitudes(n, gamma, h):
    # A window whose edges held more than 1e-17 of the peak could still pass
    # the residual gate; these points moved by up to 2e-8 when it did.
    gs = lmg_ground_state(ModelParams(n, gamma, h))
    energy, whole = ground_eigenpair(build_sector_matrix(gs.params, gs.sector()))
    assert gs.energy == pytest.approx(energy, rel=1e-15)
    np.testing.assert_allclose(gs.amplitudes, whole, rtol=0.0, atol=1e-13)


def test_window_on_a_local_well_is_not_certified():
    # Two wells: a window around the shallow one at row 50 holds a state
    # that decays below 1e-17 at both edges and meets the residual gate,
    # but the Sturm count sees the deeper well at row 200.
    rows = np.arange(301.0)
    t = TridiagonalMatrix(np.minimum((rows - 50.0) ** 2, (rows - 200.0) ** 2 - 5.0),
                          np.full(300, -0.5))
    energy, vec = solver._window_eigenpair(t, centre=50)
    e_ref, v_ref = oracles.tridiagonal_ground(t)
    assert energy == pytest.approx(e_ref, abs=1e-10 * abs(e_ref))
    assert abs(float(vec @ v_ref)) == pytest.approx(1.0, abs=1e-8)


def test_critical_point_work_stays_sublinear(monkeypatch):
    # Whole-block solves would hand 50001 + 50001 rows to the eigensolver.
    rows = record_block_rows(monkeypatch)
    lmg_ground_state(ModelParams(100001, 0.5, 1.0))
    assert sum(rows) < 5000
