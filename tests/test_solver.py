import ctypes
import importlib.util
import math
import pickle
import tracemalloc
import types

import numpy as np
import pytest

import oracles
from lmgfisher import cli, metrology, solver
from lmgfisher.analytic import isotropic_ground_m
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


def test_tridiagonal_validation_covers_make_and_replace():
    t = TridiagonalMatrix(np.array([1.0, 2.0]), np.array([0.5]))
    for bad, message in (({"offdiagonal": np.array([])}, "offdiagonal must have length"),
                         ({"diagonal": np.array([1.0, np.nan])}, "entries must be finite"),
                         ({"offdiagonal": np.array([-np.inf])}, "entries must be finite"),
                         ({"diagonal": np.array([[1.0, 2.0]])}, "diagonal must be a vector")):
        with pytest.raises(ValueError, match=message):
            TridiagonalMatrix(**{**t._asdict(), **bad})
        with pytest.raises(ValueError, match=message):
            t._replace(**bad)
        with pytest.raises(ValueError, match=message):
            TridiagonalMatrix._make({**t._asdict(), **bad}.values())
    coerced = t._replace(diagonal=[3, 4])
    assert type(coerced) is TridiagonalMatrix and coerced.diagonal.dtype == np.float64


def test_ground_state_survives_a_pickle_round_trip():
    gs = lmg_ground_state(ModelParams(40, 0.5, 0.8))
    back = pickle.loads(pickle.dumps(gs, pickle.HIGHEST_PROTOCOL))
    assert type(back) is GroundState and type(back.params) is ModelParams
    for field in ("params", "parity", "energy", "offset"):
        assert getattr(back, field) == getattr(gs, field)
    assert np.array_equal(back.amplitudes, gs.amplitudes)
    assert np.array_equal(back.sector(), gs.sector())


def test_numpy_fields_solve_with_the_float64_bits():
    # ModelParams stores int(N), float(gamma) and float(h).  Kept as numpy
    # float32, gamma and h would carry the Hamiltonian's coefficients into
    # float32 (NEP 50), which moved E by 6e-9 and chi2 by 6e-8 relative.
    # The constructor, _replace and unpickling (here of a record forged with
    # numpy fields) give the Python-float bits;
    # a bool or a non-real gamma or h is rejected like an out-of-range one.
    g32, h32 = np.float32(0.3), np.float32(0.7)
    for n in (10, 1000):
        ref = ModelParams(n, float(g32), float(h32))
        expected = (lmg_ground_state(ref).energy, metrology.report(lmg_ground_state(ref)))
        for params in (ModelParams(np.int64(n), g32, h32), ModelParams(n, 0.5, 0.5)._replace(gamma=g32, h=h32),
                       pickle.loads(pickle.dumps(tuple.__new__(ModelParams, (np.int64(n), g32, h32))))):
            assert [type(field) for field in params] == [int, float, float] and params == ref
            gs = lmg_ground_state(params)
            assert (gs.energy, metrology.report(gs)) == expected
    base = ModelParams(10, 0.5, 0.5)
    for bad, message in (({"gamma": True}, "gamma must lie"), ({"gamma": np.True_}, "gamma must lie"),
                         ({"gamma": 0.5 + 0j}, "gamma must lie"), ({"h": True}, "h must be"),
                         ({"h": np.False_}, "h must be"), ({"h": "0.5"}, "h must be")):
        with pytest.raises(ValueError, match=message):
            base._replace(**bad)


def _strided(values):
    """`values` as a float64 view with stride 3 that owns no data."""
    base = np.zeros(3 * len(values))
    base[::3] = values
    return base[::3]


# Each way of handing a buffer that LAPACK must not see as it is, beside
# the contiguous float64 copy that it gets instead.
_BUFFER_FORMS = {
    "strided": _strided,
    "reversed": lambda values: np.array(values[::-1], dtype=float)[::-1],
    "integer list": lambda values: [int(x) for x in values],
}


@pytest.mark.parametrize("form", sorted(_BUFFER_FORMS))
def test_lapack_gets_contiguous_float64_copies(form):
    # ground_eigenpair passes LAPACK raw addresses, so it must give the
    # same bits on any array-like as on a contiguous float64 copy.
    make = _BUFFER_FORMS[form]
    rng = np.random.default_rng(24)
    for dim in (1, 2, 7, 40):
        d = rng.integers(-9, 10, dim).astype(float)
        e = rng.integers(-9, 10, dim - 1).astype(float)
        viewed = TridiagonalMatrix(make(d), make(e))
        e_ref, v_ref = ground_eigenpair(TridiagonalMatrix(d.copy(), e.copy()))
        energy, vec = ground_eigenpair(viewed)
        assert energy == e_ref and np.array_equal(vec, v_ref)


def test_lapack_address_takes_only_fresh_contiguous_buffers():
    for good in (np.zeros(3), np.zeros(3, np.int64), np.ldexp(np.ones(6)[::2], 1)):
        assert solver._address(good, 3) == good.ctypes.data
    owner = np.zeros(6)
    for bad in (owner[::2], owner[3:], np.zeros(3, np.int32), np.zeros(3, np.float32), np.zeros(4),
                np.zeros((3, 1))):
        with pytest.raises(ValueError, match="fresh C-contiguous"):
            solver._address(bad, 3)
    with pytest.raises(ValueError, match="vector of length 3"):  # LAPACK would read past a short buffer
        solver._address(np.zeros(2), 3)


def test_ground_eigenpair_trivial_1x1():
    # dstevx gets an empty off-diagonal and its work buffers of 5 entries.
    for d in (5.0, -3.5, 0.0, 5e-324, -1.7e308):
        energy, vec = ground_eigenpair(TridiagonalMatrix(np.array([d]), np.array([])))
        assert energy == d
        np.testing.assert_array_equal(vec, [1.0])


@pytest.mark.parametrize("a,c,b", [(-4.25, 3.75, -0.25), (0.0, 0.0, -1.0), (1.0, 3.0, 0.5), (2.0, -1.0, 0.0),
                                   (-1.0, 2.0, 3.0), (0.5, 0.625, 1e-3)])
@pytest.mark.parametrize("j", [0, -1000, 1000])
def test_ground_eigenpair_2x2_matches_its_closed_form(a, c, b, j):
    # [[a, b], [b, c]] scaled by 2^j: E = (a + c)/2 - sqrt(((a - c)/2)^2 + b^2),
    # and v is along (b, E - a), or (E - c, b), with its largest |amplitude| > 0.
    t = TridiagonalMatrix(np.ldexp([a, c], j), np.ldexp([b], j))
    energy, vec = ground_eigenpair(t)
    expected = (a + c) / 2.0 - math.hypot((a - c) / 2.0, b)
    along = np.array([b, expected - a]) if abs(expected - a) >= abs(expected - c) else np.array([expected - c, b])
    along /= math.hypot(*along)
    along *= np.sign(along[np.argmax(np.abs(along))])
    assert math.ldexp(energy, -j) == pytest.approx(expected, rel=4e-16, abs=4e-16)
    np.testing.assert_allclose(vec, along, rtol=0.0, atol=4e-16)


def test_ground_eigenpair_2x2_closed_form():
    t = TridiagonalMatrix(np.array([-4.25, 3.75]), np.array([-0.25]))
    energy, vec = ground_eigenpair(t)
    expected = -0.25 - math.sqrt(16.0625)
    assert energy == pytest.approx(expected, rel=1e-14)
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
    # closed-form eigenvector direction
    residual = oracles.matvec(t, vec) - energy * vec
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


def test_eigenvalue_past_the_float_range_is_a_convergence_error():
    # Finite entries whose lowest eigenvalue, about -1.97e308, is not a float.
    t = TridiagonalMatrix(np.array([1.7e308, -1.7e308]), np.array([1e308]))
    with pytest.raises(ConvergenceError) as err:
        ground_eigenpair(t)
    assert err.value.residual == math.inf


@pytest.mark.parametrize("t", [
    TridiagonalMatrix(np.array([0.0, 1.0, 5.0, 6.0]), np.full(3, -0.1)),
    # A double well: its two levels lie 4e-11 apart, inside the residual
    # gate of 5e-10, so a vector of the upper level would meet the gate.
    TridiagonalMatrix(np.array([0.0, 5.0, 0.0]), np.full(2, -1e-5)),
], ids=["separated", "inside-the-gate"])
def test_ground_eigenpair_returns_the_lowest_level(t):
    levels, vectors = np.linalg.eigh(oracles.to_dense(t))
    energy, vec = ground_eigenpair(t)
    assert energy == pytest.approx(levels[0], abs=1e-15)
    assert abs(float(vec @ vectors[:, 0])) == pytest.approx(1.0, abs=1e-9)


def test_smallest_eigenpair_of_random_tridiagonals():
    # Half of the matrices have a zero off-diagonal entry, so they split
    # into two blocks and the smallest eigenpair may lie in either.  The
    # vector is unit, its largest |amplitude| is positive, and it meets the
    # residual gate.
    rng = np.random.default_rng(20261018)
    for _ in range(100):
        t = random_tridiagonal(rng, int(rng.integers(1, 33)))
        if t.offdiagonal.size and rng.integers(2):
            t.offdiagonal[rng.integers(t.offdiagonal.size)] = 0.0
        e_ref, v_ref = oracles.tridiagonal_ground(t)
        energy, vec = ground_eigenpair(t)
        assert energy == pytest.approx(e_ref, abs=1e-10 * max(1.0, abs(e_ref)))
        assert abs(float(vec @ v_ref)) == pytest.approx(1.0, abs=1e-8)
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-14)
        assert vec[np.argmax(np.abs(vec))] > 0.0
        assert np.linalg.norm(oracles.matvec(t, vec) - energy * vec) <= oracles.residual_tolerance(t)


@pytest.mark.parametrize("failure", ["info", "no-eigenvalue"])
def test_lapack_failure_is_a_convergence_error(monkeypatch, tmp_path, failure):
    # dstevx runs, then either reports info = 1 (the vector did not
    # converge) or finds no eigenvalue, which leaves no vector, so that
    # error carries an infinite residual.  Both come back through
    # out-arguments, passed by reference: M (the count) and INFO.
    call = solver._dstevx

    def failing(*args):
        call(*args)
        if failure == "info":
            args[17]._obj.value = 1  # INFO
        else:
            args[10]._obj.value = 0  # M, the eigenvalue count

    monkeypatch.setattr(solver, "_dstevx", failing)
    t = TridiagonalMatrix(np.array([1.0, -2.0, 0.5]), np.array([0.3, -0.4]))
    message = "dstevx returned info 1" if failure == "info" else "dstevx found 0 eigenvalues"
    with pytest.raises(ConvergenceError, match=message) as err:
        ground_eigenpair(t)
    assert math.isfinite(err.value.residual) == (failure == "info")
    out = tmp_path / "failed.csv"
    code = cli.main(["--mode", "field-sweep", "--n", "10", "--gamma", "0.5", "--h", "0.5",
                     "--out", str(out), "--jobs", "1"])
    assert code == 2
    assert ",convergence_error" in out.read_text()


def test_missing_lapack_symbol_is_an_import_error(monkeypatch):
    # solver.py, run against a stub library that exports no symbol at all
    monkeypatch.setattr(ctypes, "CDLL", lambda path: types.SimpleNamespace())
    spec = importlib.util.spec_from_file_location("lmgfisher._stub_solver", solver.__file__)
    with pytest.raises(ImportError, match="scipy_dstevx_64_"):
        spec.loader.exec_module(importlib.util.module_from_spec(spec))


def test_window_eigenpair_matches_scipy_at_large_n():
    # At N = 1e9, h = 1 the next level lies only 1.6e-3 above the lowest,
    # on a diagonal near 5e8, so any admixture of it shows in chi2.
    # On the rows of the window that lmg_ground_state accepts, the pair
    # from ground_eigenpair must give scipy's chi2.
    linalg = pytest.importorskip("scipy.linalg")
    params = ModelParams(n_spins=10**9, gamma=0.5, h=1.0)
    gs = lmg_ground_state(params)
    t = build_sector_matrix(params, gs.parity, gs.offset, gs.offset + gs.amplitudes.size)
    energy, vec = ground_eigenpair(t)
    _, ref = linalg.eigh_tridiagonal(t.diagonal, t.offdiagonal, select="i", select_range=(0, 0))

    def chi2(v):
        return metrology.report(gs._replace(amplitudes=v)).chi2

    assert chi2(vec) == pytest.approx(chi2(ref[:, 0]), rel=1e-8)


def test_lmg_ground_state_n2_isotropic():
    gs = lmg_ground_state(ModelParams(2, 1.0, 2.0))
    assert gs.parity == EVEN
    assert gs.energy == pytest.approx(-2.5, abs=1e-12)
    np.testing.assert_allclose(gs.amplitudes, [1.0, 0.0], atol=1e-12)


def test_lmg_ground_state_isotropic_coordinate_vector():
    gs = lmg_ground_state(ModelParams(100, 1.0, 0.5))
    m = gs.sector()
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


@pytest.mark.parametrize("s", [1e160, 1e300, 1e307])
def test_extreme_scale_matches_unit_scale(s):
    # The entries are scaled by a power of two before bisecting (s itself
    # is not one), and past s ~ 1e171 the squares of the residual's entries
    # would overflow if not taken in units of the gate's scale.  Measured:
    # E/s within 1.2e-16 and v within 2.3e-16 of the s = 1 pair.
    d, e = np.array([1.0, 2.0, 3.0]), np.array([0.5, 0.25])
    e_ref, v_ref = ground_eigenpair(TridiagonalMatrix(d, e))
    energy, vec = ground_eigenpair(TridiagonalMatrix(s * d, s * e))
    assert energy / s == pytest.approx(e_ref, abs=3e-16)
    np.testing.assert_allclose(vec, v_ref, rtol=0.0, atol=3e-16)


@pytest.mark.parametrize("k", [-1000, -600, -1, 1, 600, 1000])
def test_power_of_two_scale_keeps_the_unit_scale_energy(k):
    # Every matrix reaches dstevx scaled by a power of two to a largest
    # |entry| in [1/2, 1), so T and 2^k T hand it the same copy:
    # ground_eigenpair(2^k T) is (2^k E, v) bit for bit, vector included.
    rng = np.random.default_rng(23)
    cases = [TridiagonalMatrix(np.array([1.0, 2.0, 3.0]), np.array([0.5, 0.25]))]
    cases += [random_tridiagonal(rng, int(rng.integers(1, 60))) for _ in range(200)]
    for t in cases:
        scaled = TridiagonalMatrix(np.ldexp(t.diagonal, k), np.ldexp(t.offdiagonal, k))
        assert np.array_equal(np.ldexp(scaled.diagonal, -k), t.diagonal)  # the scaling is exact
        assert np.array_equal(np.ldexp(scaled.offdiagonal, -k), t.offdiagonal)
        e_ref, v_ref = ground_eigenpair(t)
        energy, vec = ground_eigenpair(scaled)
        assert energy == math.ldexp(e_ref, k)
        assert np.array_equal(vec, v_ref)


def test_residual_gate_holds_when_the_scale_overflows(monkeypatch):
    # ||diag||_inf + 2 ||off||_inf overflows here; the gate's unit is then
    # the largest float, not inf, and a zero tolerance (which every
    # rounding fails) must still reject the pair.
    monkeypatch.setattr(solver, "_RESIDUAL_FACTOR", 0.0)
    t = TridiagonalMatrix(np.array([1.7e308, 1.2e308, -0.9e308]), np.array([1e307, 3e306]))
    with pytest.raises(ConvergenceError) as err:
        ground_eigenpair(t)
    assert 0.0 < err.value.residual < math.inf


def test_extreme_field_n2_solves_both_parities(tmp_path):
    params = ModelParams(2, 0.3, 1e307)
    for parity in (EVEN, ODD):
        t = build_sector_matrix(params, parity)
        energy, _ = ground_eigenpair(t)
        assert math.isfinite(energy)
    out = tmp_path / "extreme.csv"
    code = cli.main(["--mode", "field-sweep", "--n", "2", "--gamma", "0.3", "--h", "1e307",
                     "--out", str(out), "--jobs", "1"])
    assert code == 0
    row = out.read_text().splitlines()[1].split(",")
    assert row[-1] == "ok"
    assert float(row[5]) == -1e307  # -h S, correctly rounded


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
        m = gs.sector()
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
            block = build_sector_matrix(params, parity)
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
                block = build_sector_matrix(gs.params, gs.parity, gs.offset, gs.offset + gs.amplitudes.size)
                residual = np.linalg.norm(oracles.matvec(block, gs.amplitudes) - gs.energy * gs.amplitudes)
                bound = np.max(np.abs(block.diagonal))
                if block.offdiagonal.size:
                    bound += 2.0 * np.max(np.abs(block.offdiagonal))
                assert residual <= 1e-10 * max(1.0, bound)
                assert np.all(gs.amplitudes >= 0.0)  # off-diagonal <= 0: Perron-Frobenius


def test_ground_state_sector_roundtrip():
    gs = lmg_ground_state(ModelParams(9, 0.3, 0.4))
    m = gs.sector()
    rows = slice(gs.offset, gs.offset + gs.amplitudes.size)
    np.testing.assert_array_equal(m, build_sector(gs.params, gs.parity)[rows])
    assert m.size == gs.amplitudes.size
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
        block = build_sector_matrix(gs.params, gs.parity)
        padded = oracles.block_amplitudes(gs)
        residual = np.linalg.norm(oracles.matvec(block, padded) - gs.energy * padded)
        assert residual <= oracles.residual_tolerance(block)
        full = np.zeros(n + 1)
        full[np.isin(m, gs.sector())] = gs.amplitudes
        np.testing.assert_allclose(np.abs(full), np.abs(vec), atol=1e-8)
        parity_sign = np.where(np.round(n / 2.0 - m).astype(int) % 2 == 0, 1.0, -1.0)
        oracle_parity = EVEN if float(vec @ (parity_sign * vec)) > 0.0 else ODD
        assert gs.parity == oracle_parity


def test_symmetric_phase_solves_a_strict_sub_block(monkeypatch):
    rows = record_block_rows(monkeypatch)
    gs = lmg_ground_state(ModelParams(600, 0.5, 1.5))
    assert rows and max(rows) < 301  # each parity block has 301 or 300 rows
    assert gs.amplitudes.size < oracles.block_amplitudes(gs).size == 301


def test_misplaced_window_widens_to_the_ground_state():
    # h = 0.3: the block's ground state sits mid-block, far from row 0, so
    # the first windows fail certification and must widen, not return a
    # window-local state.
    params = ModelParams(600, 0.5, 0.3)
    energy, vec = window_solve(solver._Block(params, EVEN), centre=0)
    e_ref, v_ref = oracles.tridiagonal_ground(build_sector_matrix(params, EVEN))
    assert energy == pytest.approx(e_ref, abs=1e-10 * abs(e_ref))
    assert abs(float(vec @ v_ref)) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("n,gamma,h", [(600, 0.9, 1.0), (1000, 0.99, 0.8), (2000, 0.5, 0.3)])
def test_window_drops_only_negligible_amplitudes(n, gamma, h):
    # A window whose edges held more than 1e-17 of the peak could still pass
    # the residual gate; these points moved by up to 2e-8 when it did.
    gs = lmg_ground_state(ModelParams(n, gamma, h))
    energy, whole = ground_eigenpair(build_sector_matrix(gs.params, gs.parity))
    assert gs.energy == pytest.approx(energy, rel=1e-15)
    np.testing.assert_allclose(oracles.block_amplitudes(gs), whole, rtol=0.0, atol=1e-13)


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


class _Widened(Exception):
    """A second solve: the window loop did not accept its first window."""


def first_pass(block, lo, hi):
    """One pass of solver._window_eigenpair over rows [lo, hi), which must
    have an odd count: whether it is accepted, and the bordered window
    solved, with its energy."""
    solved = []
    solve = solver.ground_eigenpair

    def once(t):
        if solved:
            raise _Widened
        solved.append((t, *solve(t)))
        return solved[0][1:]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "ground_eigenpair", once)
        try:
            solver._window_eigenpair(block, (lo + hi) // 2, (hi - lo) // 2)
        except _Widened:
            return False, solved[0][0], solved[0][1]
    return True, solved[0][0], solved[0][1]


def check_lower_bound(block, whole, least, windows):
    """Check (b) alone on each window of `windows`, one pass each.  Where it
    accepts, the bordered window's energy E is at most the whole block's
    least eigenvalue, within 2 ulps of the block's scale: the certificate
    proves E - tol, and on these windows E itself is a lower bound.  Where
    a row of the whole block outside the window is not diagonally dominant
    at the certificate's x = E - tol, it rejects.  Returns the verdicts on
    the windows whose bordered rows are a strict part of the block."""
    scale = np.max(np.abs(whole.diagonal)) + 2.0 * np.max(np.abs(whole.offdiagonal), initial=0.0)
    ulps = 2.0 * float(np.finfo(float).eps) * scale
    verdicts = []
    for lo, hi in windows:
        if 2 * (hi - lo) > block.dimension:  # the solver takes the whole block instead
            lo, hi = 0, block.dimension
        accepted, bordered, energy = first_pass(block, lo, hi)
        if accepted:
            assert energy <= least + ulps, (lo, hi, energy - least)
        if not oracles.dominant_outside(whole, lo, hi, energy - oracles.residual_tolerance(bordered)):
            assert not accepted, (lo, hi)
        if bordered.dimension < block.dimension:
            verdicts.append(accepted)
    return verdicts


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


def test_certificate_reads_the_slack_beyond_the_window_edges(monkeypatch):
    # A steep convex well whose non-dominant rows lie within a few rows of
    # row 150.  A window away from it has dominant rows beside its edges,
    # but rows further beyond one edge are not dominant, so the slack floor
    # over the rows outside it stays below x = E - tol and the window is
    # not certified.  The edge test (a) is made vacuous, so that (b) alone
    # decides.
    monkeypatch.setattr(solver, "_WINDOW_EDGE_RELTOL", math.inf)
    rows = np.arange(301.0)
    t = TridiagonalMatrix(0.01 * (rows - 150.0) ** 2, np.full(300, -0.5))
    least = float(np.linalg.eigvalsh(oracles.to_dense(t))[0])
    verdicts = check_lower_bound(oracles.ArrayBlock(t), t, least, [(lo, lo + 33) for lo in range(0, 269, 3)])
    assert any(verdicts) and not all(verdicts)


CERTIFICATE_GRID = [(n, gamma) for n in (3, 10, 101, 600, 10001) for gamma in (0.0, 0.5, 0.99, 1.0)]


@pytest.mark.parametrize("n,gamma", CERTIFICATE_GRID)
def test_certificate_matches_the_whole_block_oracle(monkeypatch, n, gamma):
    # Check (b) reads the bordered window's rows and the closed-form slack
    # floor; its energy must bound the whole block's least eigenvalue, from
    # scipy's bisection on the whole block, from below, and it must reject
    # wherever the whole block has a row outside the window that is not
    # dominant at x = E - tol.  The edge test (a) is made vacuous, so that
    # (b) alone decides.
    linalg = pytest.importorskip("scipy.linalg")
    monkeypatch.setattr(solver, "_WINDOW_EDGE_RELTOL", math.inf)
    verdicts = []
    for h in np.linspace(0.0, 3.0, 13):
        params = ModelParams(n, gamma, float(h))
        for parity in (EVEN, ODD):
            block = solver._Block(params, parity)
            whole = build_sector_matrix(params, parity)
            least = float(linalg.eigvalsh_tridiagonal(whole.diagonal, whole.offdiagonal, select="i",
                                                      select_range=(0, 0))[0])
            verdicts += check_lower_bound(block, whole, least, certificate_windows(block.dimension))
    # At N = 3 both blocks have 2 rows, so every bordered window is the whole block.
    assert (any(verdicts) and not all(verdicts)) if n > 3 else not verdicts


def block_scale(block):
    """The block's scale h S + (S+1)/2, a bound on its max|d| + 2 max|e|."""
    s = block.params.total_spin
    return block.params.h * s + (s + 1.0) / 2.0


@pytest.mark.parametrize("n,gamma", CERTIFICATE_GRID)
def test_slack_floor_bounds_every_row_outside_the_window(n, gamma):
    # The closed form is at most the least row sum outside the window, up
    # to rounding, and at most 0.5 below it.
    eps = float(np.finfo(float).eps)
    for h in np.linspace(0.0, 3.0, 13):
        params = ModelParams(n, gamma, float(h))
        for parity in (EVEN, ODD):
            block = solver._Block(params, parity)
            whole = oracles.ArrayBlock(build_sector_matrix(params, parity))
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
    # diagonal is nearly flat beside it: neither block should widen.  Each
    # solve carries the row beside each inner edge: two at h = 0.5, where
    # the window sits inside the block, and one at h = 1, where it starts
    # at the block's first row.
    rows = record_block_rows(monkeypatch)
    lmg_ground_state(ModelParams(10**8, 1.0, h))
    inner_edges = 2 if h < 1.0 else 1
    assert rows == [33 + inner_edges] * 2


_M2_OVER_N_ROUNDS = pytest.mark.xfail(
    strict=True, reason="the O(N) diagonal rounds M^2/N below one ulp (ROADMAP item 1, centred diagonal)")


@pytest.mark.parametrize("n, h", [
    *((n, h) for n in (10**5, 2 * 10**8) for h in (0.0, 1.0, 1.5)),
    *(pytest.param(n, h, marks=_M2_OVER_N_ROUNDS)
      for n, h in ((5 * 10**8, 0.0), (10**9, 0.0), (3 * 10**8, 1.0), (10**9, 1.0))),
])
def test_isotropic_ground_state_is_the_closed_form_dicke_state(n, h):
    # At gamma = 1 the ground state is the one Dicke row M0 of
    # isotropic_ground_m; the peak amplitude must sit on it.
    gs = lmg_ground_state(ModelParams(n, 1.0, h))
    assert gs.sector()[np.argmax(np.abs(gs.amplitudes))] == isotropic_ground_m(n, h)


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
        m, p = gs.sector(), gs.amplitudes ** 2
        sigma = math.sqrt(float(p @ (m - p @ m) ** 2))
        half = solver._first_window(params)
        assert half >= 6.0 * sigma, params
        assert len(rows) == 2, params


@pytest.mark.parametrize("h", [0.5, 1.0, 1.5])
def test_large_n_solves_one_window_per_block(monkeypatch, h):
    # Each block's first window holds its state: exactly one solve per
    # block, on the 2w + 1 rows of the window and the row beside each edge
    # inside the block.  At h = 0.5 the window sits inside the block; at
    # h = 1 and 1.5 it starts at the block's first row.
    rows = record_block_rows(monkeypatch)
    params = ModelParams(10**6, 0.5, h)
    lmg_ground_state(params)
    inner_edges = 2 if h < 1.0 else 1
    assert rows == [2 * solver._first_window(params) + 1 + inner_edges] * 2


@pytest.mark.parametrize("n", [10**4, 10**6, 10**9])
@pytest.mark.parametrize("gamma", [0.0, 0.5, 0.9])
def test_critical_first_window_holds_the_state(monkeypatch, gamma, n):
    # At h = 1 each block's lowest state reaches 1e-17 of its peak at most
    # 7.44 ((1-gamma)N)^(1/3) rows from the top; the first window, 8 of
    # those units plus one row, is accepted in each block without widening.
    # It starts at the top row, so its solve carries one border row.
    rows = record_block_rows(monkeypatch)
    lmg_ground_state(ModelParams(n, gamma, 1.0))
    half = math.ceil(4.0 * ((1.0 - gamma) * n) ** (1.0 / 3.0))
    assert rows == [2 * half + 2] * 2


@pytest.mark.parametrize("gamma,h,half", [
    (0.0, 0.5, 117714), (0.5, 0.5, 98985), (0.9, 0.5, 66196),
    (0.0, 1.5, 16), (0.5, 1.5, 16), (0.9, 1.5, 16),
])
def test_deep_phase_first_windows_are_unchanged(gamma, h, half):
    # Far outside the crossover band |h - 1| N^(2/3) <= 32 the critical
    # width does not apply: the first window is the Bogoliubov width
    # (broken phase) or 16 (symmetric).
    assert solver._first_window(ModelParams(10**9, gamma, h)) == half


def test_critical_point_work_stays_sublinear(monkeypatch):
    # Whole-block solves would hand 50001 + 50001 rows to the eigensolver,
    # and building the whole blocks would make 50001 rows each.  A window
    # builds two more rows beside each edge, and its solve takes one of
    # them.
    rows = record_block_rows(monkeypatch)
    built = []
    build = solver.build_sector_matrix

    def building(params, parity, lo=0, hi=None):
        t = build(params, parity, lo, hi)
        built.append(t.dimension)
        return t

    monkeypatch.setattr(solver, "build_sector_matrix", building)
    lmg_ground_state(ModelParams(100001, 0.5, 1.0))
    assert sum(rows) < 5000
    assert max(built) <= max(rows) + 2


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
        ref = {p: oracles.tridiagonal_ground(build_sector_matrix(params, p))[0]
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
        assert all(math.isfinite(getattr(rep, f)) for f in rep._fields)
    assert windowed >= 1
