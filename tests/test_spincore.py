import math

import numpy as np
import pytest

import oracles
from lmgfisher.spincore import (
    EVEN,
    ODD,
    ModelParams,
    build_sector,
    build_sector_matrix,
    ladder_coefficient,
    parity_of,
)


def test_model_params_validation():
    ModelParams(1, 0.0, 0.0)
    with pytest.raises(ValueError):
        ModelParams(0, 0.5, 1.0)
    with pytest.raises(ValueError):
        ModelParams(4, -0.1, 1.0)
    with pytest.raises(ValueError):
        ModelParams(4, 1.1, 1.0)
    with pytest.raises(ValueError):
        ModelParams(4, 0.5, -0.5)


def test_model_params_rejects_non_integer_n():
    with pytest.raises(ValueError):
        ModelParams(10.5, 0.5, 1.0)
    assert ModelParams(np.int64(10), 0.5, 1.0).total_spin == 5.0


@pytest.mark.parametrize("h", [math.nan, math.inf, 1e308, 5e307])
def test_model_params_rejects_non_finite_h(h):
    # h N, the spread of the block diagonal, must stay finite (5e307: h N/2
    # is finite, h N is not)
    with pytest.raises(ValueError):
        ModelParams(4, 0.5, h)


def test_ladder_coefficient_values():
    assert ladder_coefficient(1, 1) == 0.0
    assert ladder_coefficient(1, 0) == pytest.approx(math.sqrt(2.0), abs=0.0)
    assert ladder_coefficient(4, -2) == pytest.approx(math.sqrt(18.0), rel=1e-15)


def test_ladder_coefficient_against_pauli_raising_operator():
    # amplitude <S,-1| S+ |S,-2> for N = 8 from raw Pauli sums
    n = 8
    sp = oracles.collective_operator(n, oracles.SX) + 1j * oracles.collective_operator(n, oracles.SY)
    basis = oracles.dicke_basis(n)
    col = {m: basis[:, int(n / 2 - m)] for m in (-1, -2)}
    amp = col[-1].conj() @ sp @ col[-2]
    assert amp.real == pytest.approx(ladder_coefficient(4, -2), rel=1e-12)
    assert abs(amp.imag) < 1e-12


def test_ladder_coefficient_domain():
    with pytest.raises(ValueError):
        ladder_coefficient(1, 2)
    with pytest.raises(ValueError):
        ladder_coefficient(1, 0.5)


def test_parity_of():
    assert parity_of(1, 1) == EVEN
    assert parity_of(1, 0) == ODD
    # S - M = 25 flipped spins
    assert parity_of(50, 25) == ODD
    assert parity_of(2.5, 0.5) == EVEN


def test_build_sector_enumeration():
    p4 = ModelParams(4, 0.5, 0.0)
    assert build_sector(p4, EVEN).m_values.tolist() == [2.0, 0.0, -2.0]
    assert build_sector(p4, ODD).m_values.tolist() == [1.0, -1.0]
    p5 = ModelParams(5, 0.5, 0.0)
    assert build_sector(p5, EVEN).m_values.tolist() == [2.5, 0.5, -1.5]
    assert build_sector(p5, ODD).m_values.tolist() == [1.5, -0.5, -2.5]


@pytest.mark.parametrize("n", range(1, 10))
def test_sector_completeness_and_structure(n):
    params = ModelParams(n, 0.3, 0.7)
    dims = 0
    for parity in (EVEN, ODD):
        sector = build_sector(params, parity)
        m = sector.m_values
        dims += m.size
        assert np.all(np.diff(m) == -2.0)
        assert np.all(np.abs(m) <= params.total_spin)
        assert all(parity_of(params.total_spin, mv) == parity for mv in m)
        assert m.size in ((n + 2) // 2, (n + 1) // 2)
    assert dims == n + 1


def test_sector_matrix_isotropic_is_diagonal():
    for n in (2, 5, 12):
        params = ModelParams(n, 1.0, 0.8)
        for parity in (EVEN, ODD):
            block = build_sector_matrix(params, build_sector(params, parity))
            assert np.all(block.offdiagonal == 0.0)


def test_sector_matrix_hand_example():
    # N=2, gamma=0, h=2, even sector {1, -1}
    params = ModelParams(2, 0.0, 2.0)
    block = build_sector_matrix(params, build_sector(params, EVEN))
    np.testing.assert_allclose(block.diagonal, [-0.25 - 2.0, -0.25 + 2.0], atol=0.0)
    np.testing.assert_allclose(block.offdiagonal, [-0.25], atol=0.0)


def test_sector_matrix_mismatch_is_an_error():
    params = ModelParams(4, 0.5, 0.0)
    other = build_sector(ModelParams(6, 0.5, 0.0), EVEN)
    with pytest.raises(ValueError):
        build_sector_matrix(params, other)


def test_even_block_matches_pauli_projection_n4():
    params = ModelParams(4, 0.5, 0.0)
    sector = build_sector(params, EVEN)
    block = build_sector_matrix(params, sector).to_dense()
    full = oracles.projected_pauli_block(4, 0.5, 0.0)
    rows = [int(2 - mv) for mv in sector.m_values]  # descending-M index of each sector member
    np.testing.assert_allclose(block, full[np.ix_(rows, rows)], atol=1e-12)


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("gamma,h", [(0.0, 0.5), (0.5, 0.3), (1.0, 1.2), (0.7, 0.0)])
def test_sector_direct_sum_equals_pauli_block(n, gamma, h):
    params = ModelParams(n, gamma, h)
    full = oracles.projected_pauli_block(n, gamma, h)
    s = params.total_spin
    for parity in (EVEN, ODD):
        sector = build_sector(params, parity)
        block = build_sector_matrix(params, sector).to_dense()
        rows = [int(round(s - mv)) for mv in sector.m_values]
        np.testing.assert_allclose(block, full[np.ix_(rows, rows)], atol=1e-12)
    # cross-parity entries of the projected H vanish
    even_rows = [int(round(s - mv)) for mv in build_sector(params, EVEN).m_values]
    odd_rows = [int(round(s - mv)) for mv in build_sector(params, ODD).m_values]
    assert np.max(np.abs(full[np.ix_(even_rows, odd_rows)])) < 1e-12
