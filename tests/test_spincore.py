import math
import pickle
import struct
import sys

import numpy as np
import pytest

import oracles
from lmgfisher.spincore import (
    EVEN,
    MAX_N_SPINS,
    ODD,
    ModelParams,
    TridiagonalMatrix,
    build_sector,
    build_sector_matrix,
    sector_dimension,
    sector_row,
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


def test_model_params_validation_covers_make_replace_and_pickle():
    # Every way of building the record runs the constructor's checks.
    p = ModelParams(10, 0.5, 0.7)
    for bad, message in (({"h": -1.0}, "h must be >= 0"), ({"gamma": 1.5}, "gamma must lie"),
                         ({"n_spins": 0}, "n_spins must be an integer"),
                         ({"n_spins": MAX_N_SPINS + 1}, "n_spins must be at most")):
        with pytest.raises(ValueError, match=message):
            ModelParams(**{**p._asdict(), **bad})
        with pytest.raises(ValueError, match=message):
            p._replace(**bad)
        with pytest.raises(ValueError, match=message):
            ModelParams._make({**p._asdict(), **bad}.values())
    assert p._replace(h=1.5) == ModelParams(10, 0.5, 1.5)
    assert type(ModelParams._make([10, 0.5, 0.7])) is ModelParams
    back = pickle.loads(pickle.dumps(p, pickle.HIGHEST_PROTOCOL))
    assert type(back) is ModelParams and back == p and back.total_spin == 5.0
    assert p == (10, 0.5, 0.7)  # a NamedTuple: equal to the plain tuple of its fields


def _gamma_edited(data: bytes, protocol: int, good: float, bad: float) -> bytes:
    """Pickle bytes with the float `good` rewritten as `bad`, as a hand edit would."""
    old, new = (f"F{good!r}\n".encode(), f"F{bad!r}\n".encode()) if protocol == 0 else \
        (b"G" + struct.pack(">d", good), b"G" + struct.pack(">d", bad))
    assert data.count(old) == 1
    return data.replace(old, new)


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_unpickling_validates_at_every_protocol(protocol):
    # At protocols 0 and 1 a NamedTuple's default reduction rebuilds the tuple
    # without __new__; each record's __reduce__ makes every protocol call its
    # constructor, so edited or forged bytes never load as an invalid record.
    p = ModelParams(3, 0.5, 0.7)
    t = TridiagonalMatrix(np.array([1.25, -2.0]), np.array([0.5]))
    for record in (p, t):
        back = pickle.loads(pickle.dumps(record, protocol))
        assert type(back) is type(record)
        assert all(np.array_equal(a, b) for a, b in zip(back, record))
    with pytest.raises(ValueError, match="gamma must lie"):
        pickle.loads(_gamma_edited(pickle.dumps(p, protocol), protocol, 0.5, 1.5))
    if protocol == 0:  # the edit n_spins = -3, in the text protocol
        data = pickle.dumps(p, protocol)
        assert data.count(b"(I3\n") == 1
        with pytest.raises(ValueError, match="n_spins must be an integer"):
            pickle.loads(data.replace(b"(I3\n", b"(I-3\n"))
    # Records forged past the checks, as the unchecked TridiagonalMatrix._trusted
    # would build them from bad entries, do not load either.
    for forged, message in ((tuple.__new__(ModelParams, (-3, 0.5, 0.7)), "n_spins must be an integer"),
                            (TridiagonalMatrix._trusted(np.array([np.nan]), np.array([])), "must be finite"),
                            (TridiagonalMatrix._trusted(np.array([1.0, np.inf]), np.array([0.5])),
                             "must be finite"),
                            (TridiagonalMatrix._trusted(np.ones(3), np.ones(1)), "offdiagonal must have")):
        data = pickle.dumps(forged, protocol)
        with pytest.raises(ValueError, match=message):
            pickle.loads(data)


@pytest.mark.parametrize("n", [1, 2, 3, 10**9])
@pytest.mark.parametrize("gamma", [0.0, 1.0])
def test_block_rows_are_finite_by_construction(n, gamma):
    # build_sector_matrix skips TridiagonalMatrix's checks, since a validated
    # ModelParams keeps every entry finite.  Checked at the largest field
    # ModelParams accepts (h N finite: float max / N, one ulp lower at N = 3),
    # on whole blocks and, at N = 1e9, on windows at both ends and the centre.
    largest = sys.float_info.max / n
    while not math.isfinite(largest * n):
        largest = math.nextafter(largest, 0.0)
    for h in (0.0, 1.0, largest):
        p = ModelParams(n, gamma, h)
        for parity in (EVEN, ODD):
            count = sector_dimension(p, parity)
            if n < 10:
                ranges = [(0, count)]
            else:
                centre = sector_row(p, parity, h * p.total_spin)
                ranges = [(0, 64), (count - 64, count), (max(centre - 32, 0), max(centre - 32, 0) + 64)]
            for lo, hi in ranges:
                t = build_sector_matrix(p, parity, lo, hi)
                assert t.diagonal.dtype == t.offdiagonal.dtype == np.float64
                assert t.diagonal.shape == (hi - lo,) and t.offdiagonal.shape == (hi - lo - 1,)
                assert np.all(np.isfinite(t.diagonal)) and np.all(np.isfinite(t.offdiagonal))


def test_model_params_rejects_non_integer_n():
    with pytest.raises(ValueError):
        ModelParams(10.5, 0.5, 1.0)
    with pytest.raises(ValueError):
        ModelParams(10**400, 0.5, 0.0)  # past the float range
    with pytest.raises(ValueError):
        ModelParams(True, 0.5, 0.5)  # a bool is not an N
    assert ModelParams(np.int64(10), 0.5, 1.0).total_spin == 5.0


def test_model_params_bounds_n():
    assert ModelParams(MAX_N_SPINS, 0.5, 1.0).n_spins == 10**9
    with pytest.raises(ValueError):
        ModelParams(MAX_N_SPINS + 1, 0.5, 1.0)
    with pytest.raises(ValueError):
        ModelParams(10**18, 0.5, 1.5)


@pytest.mark.parametrize("h", [math.nan, math.inf, 1e308, 5e307])
def test_model_params_rejects_non_finite_h(h):
    # h N, the spread of the block diagonal, must stay finite (5e307: h N/2
    # is finite, h N is not)
    with pytest.raises(ValueError):
        ModelParams(4, 0.5, h)


def test_build_sector_enumeration():
    p4 = ModelParams(4, 0.5, 0.0)
    assert build_sector(p4, EVEN).tolist() == [2.0, 0.0, -2.0]
    assert build_sector(p4, ODD).tolist() == [1.0, -1.0]
    p5 = ModelParams(5, 0.5, 0.0)
    assert build_sector(p5, EVEN).tolist() == [2.5, 0.5, -1.5]
    assert build_sector(p5, ODD).tolist() == [1.5, -0.5, -2.5]
    assert build_sector(p5, ODD).dtype == np.float64


def test_sector_dimension_rejects_an_unknown_parity():
    with pytest.raises(ValueError, match="parity must be one of"):
        sector_dimension(ModelParams(4, 0.5, 0.0), "up")


@pytest.mark.parametrize("n", range(1, 10))
def test_sector_completeness_and_structure(n):
    params = ModelParams(n, 0.3, 0.7)
    dims = 0
    for parity in (EVEN, ODD):
        m = build_sector(params, parity)
        dims += m.size
        assert np.all(np.diff(m) == -2.0)
        assert np.all(np.abs(m) <= params.total_spin)
        assert np.all((params.total_spin - m) % 2 == (parity == ODD))  # (-1)^(S-M) flips
        assert m.size in ((n + 2) // 2, (n + 1) // 2)
    assert dims == n + 1


def test_sector_matrix_isotropic_is_diagonal():
    for n in (2, 5, 12):
        params = ModelParams(n, 1.0, 0.8)
        for parity in (EVEN, ODD):
            block = build_sector_matrix(params, parity)
            assert np.all(block.offdiagonal == 0.0)


def test_sector_matrix_hand_example():
    # N=2, gamma=0, h=2, even sector {1, -1}
    params = ModelParams(2, 0.0, 2.0)
    block = build_sector_matrix(params, EVEN)
    np.testing.assert_allclose(block.diagonal, [-0.25 - 2.0, -0.25 + 2.0], atol=0.0)
    np.testing.assert_allclose(block.offdiagonal, [-0.25], atol=0.0)


def test_even_block_matches_pauli_projection_n4():
    params = ModelParams(4, 0.5, 0.0)
    block = oracles.to_dense(build_sector_matrix(params, EVEN))
    full = oracles.projected_pauli_block(4, 0.5, 0.0)
    rows = [int(2 - mv) for mv in build_sector(params, EVEN)]  # descending-M index of each sector member
    np.testing.assert_allclose(block, full[np.ix_(rows, rows)], atol=1e-12)


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("gamma,h", [(0.0, 0.5), (0.5, 0.3), (1.0, 1.2), (0.7, 0.0)])
def test_sector_direct_sum_equals_pauli_block(n, gamma, h):
    params = ModelParams(n, gamma, h)
    full = oracles.projected_pauli_block(n, gamma, h)
    s = params.total_spin
    for parity in (EVEN, ODD):
        block = oracles.to_dense(build_sector_matrix(params, parity))
        rows = [int(round(s - mv)) for mv in build_sector(params, parity)]
        np.testing.assert_allclose(block, full[np.ix_(rows, rows)], atol=1e-12)
    # cross-parity entries of the projected H vanish
    even_rows = [int(round(s - mv)) for mv in build_sector(params, EVEN)]
    odd_rows = [int(round(s - mv)) for mv in build_sector(params, ODD)]
    assert np.max(np.abs(full[np.ix_(even_rows, odd_rows)])) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 7, 100, 1001])
def test_block_rows_are_the_whole_blocks_rows(n):
    # Every entry depends on its own M alone, so rows [lo, hi) come out
    # bit-identical to the same rows of the whole block.
    params = ModelParams(n, 0.3, 0.7)
    for parity in (EVEN, ODD):
        whole_m = build_sector(params, parity)
        whole = build_sector_matrix(params, parity)
        dim = sector_dimension(params, parity)
        assert dim == whole_m.size == whole.dimension
        for lo, hi in {(0, dim), (0, 1), (dim - 1, dim), (dim // 3, dim // 3 + 1), (dim // 4, dim - dim // 5)}:
            np.testing.assert_array_equal(build_sector(params, parity, lo, hi), whole_m[lo:hi])
            block = build_sector_matrix(params, parity, lo, hi)
            np.testing.assert_array_equal(block.diagonal, whole.diagonal[lo:hi])
            np.testing.assert_array_equal(block.offdiagonal, whole.offdiagonal[lo:hi - 1])
        np.testing.assert_array_equal(build_sector(params, parity, np.int64(0), np.int64(dim)), whole_m)
        # bounds that are not rows: a fractional lo would name the M values
        # of the other parity block, and a bool is no row number
        for lo, hi in ((-1, 1), (0, dim + 1), (1, 1), (0.5, dim), (0, float(dim)), (False, dim), (0, True)):
            with pytest.raises(ValueError):
                build_sector(params, parity, lo, hi)
            with pytest.raises(ValueError):
                build_sector_matrix(params, parity, lo, hi)


@pytest.mark.parametrize("n", [1, 2, 7, 100, 1001])
def test_sector_row_is_the_nearest_row(n):
    # The closed form matches an argmin over the whole block, whose first
    # (upper) row wins a tie, as for M0 = 25 between M = 26 and 24 at N = 100.
    params = ModelParams(n, 0.5, 0.0)
    s = params.total_spin
    for parity in (EVEN, ODD):
        m_values = build_sector(params, parity)
        for m in [*np.linspace(-s - 3.0, s + 3.0, 241), *(m_values[:-1] - 1.0)]:
            assert sector_row(params, parity, m) == int(np.argmin(np.abs(m_values - m)))
        assert (sector_row(params, parity, math.inf), sector_row(params, parity, -math.inf)) == (0, m_values.size - 1)
        with pytest.raises(ValueError, match="m must"):
            sector_row(params, parity, math.nan)
