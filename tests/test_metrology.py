import math
from fractions import Fraction

import numpy as np
import pytest

import oracles
from lmgfisher.analytic import tl_prediction
from lmgfisher.metrology import (
    cat_state_metrics,
    dicke_metrics,
    report,
    transverse_moments,
)
from lmgfisher.solver import GroundState, lmg_ground_state
from lmgfisher.spincore import EVEN, ODD, ModelParams, build_sector, sector_dimension, spin_flip_count


def dicke_ground_state(n, m):
    """Coordinate Dicke state |S=n/2, M=m> wrapped as a GroundState."""
    params = ModelParams(n, 1.0, 0.0)
    parity = ODD if spin_flip_count(params.total_spin, m) % 2 else EVEN
    m_values = build_sector(params, parity)
    amps = np.zeros(m_values.size)
    amps[int(np.nonzero(m_values == m)[0][0])] = 1.0
    return GroundState(params=params, parity=parity, energy=0.0, amplitudes=amps)


def test_moments_of_top_dicke_state():
    # sqrt(2)^2 need not round to 2: one ulp of the exact value
    obs = transverse_moments(dicke_ground_state(2, 1))
    assert obs.sx2 == pytest.approx(0.5, abs=math.ulp(0.5))
    assert obs.sy2 == pytest.approx(0.5, abs=math.ulp(0.5))
    assert obs.sz_mean == 1.0
    assert obs.sz2 == 1.0


@pytest.mark.parametrize("n,m", [(4, 0), (6, -2), (9, 2.5), (10, 5)])
def test_moments_of_dicke_states_closed_form(n, m):
    s = n / 2.0
    obs = transverse_moments(dicke_ground_state(n, m))
    expected = (s * s + s - m * m) / 2.0
    assert obs.sx2 == pytest.approx(expected, rel=1e-14)
    assert obs.sy2 == pytest.approx(expected, rel=1e-14)
    assert obs.sz_mean == pytest.approx(m, abs=1e-14)


def test_moments_match_dense_oracle():
    gs = lmg_ground_state(ModelParams(8, 0.5, 0.5))
    obs = transverse_moments(gs)
    _, dense = oracles.dense_observables(8, 0.5, 0.5)
    assert obs.sz_mean == pytest.approx(dense["sz_mean"], abs=1e-10)
    assert obs.sz2 == pytest.approx(dense["sz2"], abs=1e-10)
    assert obs.sx2 == pytest.approx(dense["sx2"], abs=1e-10)
    assert obs.sy2 == pytest.approx(dense["sy2"], abs=1e-10)
    assert abs(dense["cross"]) < 1e-12


def test_moments_reject_unnormalized_state():
    gs = dicke_ground_state(4, 0)
    bad = GroundState(params=gs.params, parity=gs.parity, energy=0.0,
                      amplitudes=gs.amplitudes * 2.0)
    with pytest.raises(ValueError):
        transverse_moments(bad)


def test_report_rejects_nan_amplitudes():
    # A NaN norm is not within any tolerance of 1, though it is not beyond it either.
    gs = GroundState(ModelParams(4, 0.5, 0.5), EVEN, 0.0, np.array([math.nan, 0.0, 0.0]))
    with pytest.raises(ValueError, match="not normalized"):
        report(gs)


def test_moments_reject_amplitudes_of_another_shape():
    # A unit-norm row vector holds one amplitude per row of the support but
    # not in the support's shape.
    gs = dicke_ground_state(4, 0)
    bad = GroundState(params=gs.params, parity=gs.parity, energy=0.0,
                      amplitudes=gs.amplitudes[np.newaxis, :])
    with pytest.raises(ValueError, match="does not match the sector dimension"):
        transverse_moments(bad)


def test_report_takes_a_list_as_it_takes_the_array():
    gs = dicke_ground_state(6, 1)
    assert report(gs._replace(amplitudes=gs.amplitudes.tolist())) == report(gs)


@pytest.mark.parametrize("amplitudes,rule", [
    (np.array([1.0j, 0.0, 0.0]), "must be real"),
    (np.array([1.0, 0.0, 0.0], dtype=complex), "must be real"),  # a complex dtype, though its parts are 0
    (["1", "0", "0"], "must be real"),
    (np.float64(1.0), "is not 1-D"),
], ids=["complex", "complex-dtype", "strings", "scalar"])
def test_moments_reject_amplitudes_that_are_not_a_real_vector(amplitudes, rule):
    gs = GroundState(ModelParams(4, 0.5, 0.5), EVEN, 0.0, amplitudes)
    with pytest.raises(ValueError, match=rule):
        report(gs)


@pytest.mark.parametrize("parity", [EVEN, ODD])
@pytest.mark.parametrize("n", [1, 2, 7, 12, 33, 40])
def test_moments_match_dense_spin_matrices_on_random_supports(n, parity):
    # Seeded random real vectors, of both signs, on rows [offset, offset + size)
    # of one block: the whole block, window-like supports with offset > 0 and
    # the last row alone, against <psi|A|psi> for the dense spin matrices.
    params = ModelParams(n, 0.5, 0.5)
    rows = sector_dimension(params, parity)
    _, sx, sy, sz = oracles.spin_matrices(n)
    operators = {"sz_mean": sz, "sz2": sz @ sz, "sx2": sx @ sx, "sy2": sy @ sy}
    rng = np.random.default_rng([n, parity == ODD])
    first = 0 if parity == EVEN else 1  # the block's row i is row first + 2i of the dense basis
    for offset in (0, rows // 3, rows // 2, rows - 1):
        for size in (rows - offset, int(rng.integers(1, rows - offset + 1))):
            c = rng.standard_normal(size)
            c /= np.linalg.norm(c)
            psi = np.zeros(n + 1)
            psi[first + 2 * offset:first + 2 * (offset + size):2] = c
            obs = transverse_moments(GroundState(params, parity, 0.0, c, offset))
            for name, op in operators.items():
                expected = float((psi @ op @ psi).real)
                assert getattr(obs, name) == pytest.approx(expected, rel=1e-13, abs=1e-13 * (n * n + 1))


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="np.longdouble is no wider than float64 here")
def test_sy2_at_n_1e9_matches_long_double_sums():
    # In the broken phase at N = 1e9, <S_y^2> ~ 1e9 is the diagonal part
    # (S(S+1) - <S_z^2>)/2 minus the S+^2 coupling, each about 1e17.  That
    # algebra, summed in long double on the same amplitudes, is an
    # independent check: measured 9.4e-13 from the ladder-image norms on
    # x86-64 (80-bit long double), where float64 sums of it were 7.2e-8 off.
    n = 10**9
    gs = lmg_ground_state(ModelParams(n, 0.5, 0.5))
    c = gs.amplitudes.astype(np.longdouble)
    m = gs.sector().astype(np.longdouble)
    s = np.longdouble(n) / 2
    casimir = s * (s + 1)
    lower = m[1:]
    diagonal_part = np.sum(c * c * (casimir - m * m)) / 2
    coupling = np.sum(c[:-1] * c[1:] * np.sqrt((casimir - lower * (lower + 1))
                                               * (casimir - (lower + 1) * (lower + 2)))) / 2
    assert transverse_moments(gs).sy2 == pytest.approx(float(diagonal_part - coupling), rel=1e-10)


def test_report_takes_the_larger_transverse_moment():
    # N = 4 even block (M = 2, 0, -2) with alternating signs: the S+^2
    # coupling is negative, so sx2 = (5 - 2 sqrt6)/3 < sy2 = (5 + 2 sqrt6)/3
    params = ModelParams(4, 1.0, 0.0)
    gs = GroundState(params=params, parity=EVEN, energy=0.0,
                     amplitudes=np.array([1.0, -1.0, 1.0]) / math.sqrt(3.0))
    obs = transverse_moments(gs)
    assert obs.sx2 == pytest.approx((5.0 - 2.0 * math.sqrt(6.0)) / 3.0, rel=1e-13)
    assert obs.sy2 == pytest.approx((5.0 + 2.0 * math.sqrt(6.0)) / 3.0, rel=1e-14)
    rep = report(gs)
    assert rep.fisher == 4.0 * obs.sy2
    assert rep.xi1_2 == 4.0 * obs.sx2 / 4


@pytest.mark.parametrize("n", [2, 6, 12])
def test_report_top_dicke_state_is_shot_noise_limited(n):
    rep = report(dicke_ground_state(n, n / 2))
    assert rep.chi2 == pytest.approx(1.0, abs=math.ulp(1.0))
    assert rep.xi1_2 == pytest.approx(1.0, abs=math.ulp(1.0))
    assert rep.fisher == pytest.approx(float(n), abs=math.ulp(float(n)))
    assert rep.qcr == pytest.approx(1.0 / math.sqrt(n), rel=1e-15)
    assert rep.shot_noise == rep.qcr


def test_report_dicke_m0():
    rep = report(dicke_ground_state(4, 0))
    assert rep.chi2 == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert rep.xi1_2 == pytest.approx(3.0, rel=1e-15)
    assert math.isinf(rep.xi2_2)


@pytest.mark.parametrize("gamma", [0.0, 0.5])
@pytest.mark.parametrize("n", [10**4, 10**6])
def test_zero_field_xi2_is_infinite_at_large_n(n, gamma):
    # <S_z> = 0 by symmetry at h = 0; the computed |<S_z>| is rounding
    # noise that grows with N (1.4e-12 to 1.9e-12 at N = 1e4, about 1.4e-9
    # at N = 1e6, up to 2.8e-5 at N = 1e9), which the floor, relative to N,
    # must still read as no mean spin.
    rep = report(lmg_ground_state(ModelParams(n, gamma, 0.0)))
    assert math.isinf(rep.xi2_2)


def test_report_matches_dense_oracle():
    gs = lmg_ground_state(ModelParams(8, 0.5, 0.5))
    rep = report(gs)
    _, dense = oracles.dense_observables(8, 0.5, 0.5)
    vmax = max(dense["sx2"], dense["sy2"])
    vmin = min(dense["sx2"], dense["sy2"])
    n = 8
    assert rep.chi2 == pytest.approx(n / (4.0 * vmax), abs=1e-10)
    assert rep.xi1_2 == pytest.approx(4.0 * vmin / n, abs=1e-10)
    assert rep.xi2_2 == pytest.approx(n * vmin / dense["sz_mean"] ** 2, abs=1e-10)
    assert rep.fisher == pytest.approx(4.0 * vmax, abs=1e-10)
    assert rep.qcr == pytest.approx(1.0 / math.sqrt(4.0 * vmax), abs=1e-10)


def test_dicke_metrics_values():
    for n in (4, 10, 100, 2**60, 10**160, 10**300):
        top = dicke_metrics(n, n / 2)
        assert top.chi2 == top.xi2_2 == 1.0  # n <S_z>^2 and <S_z>^2 overflow past N ~ 1e155
    rep = dicke_metrics(100, 25)
    s = 50.0
    assert rep.chi2 == pytest.approx(100.0 / (2.0 * (s * s + s - 625.0)), rel=1e-15)
    assert rep.xi1_2 * rep.chi2 == pytest.approx(1.0, rel=1e-14)
    assert rep.xi2_2 == pytest.approx(100.0 * (s * s + s - 625.0) / 2.0 / 625.0, rel=1e-14)


@pytest.mark.parametrize("n", [999999999, 10**9])
@pytest.mark.parametrize("flips", [1, 2, 3, 50])
def test_dicke_metrics_near_the_top_state_at_large_n(n, flips):
    # S^2 + S - M^2 cancels to O(flips N) at M = S - flips; against exact rationals
    s = Fraction(n, 2)
    m = s - flips
    chi2 = n / (2 * (s * s + s - m * m))
    rep = dicke_metrics(n, float(m))
    assert rep.chi2 == pytest.approx(float(chi2), rel=0.0, abs=2 * math.ulp(float(chi2)))
    assert rep.xi1_2 == pytest.approx(float(1 / chi2), rel=0.0, abs=2 * math.ulp(float(1 / chi2)))


def test_dicke_metrics_m0_band():
    rep = dicke_metrics(100, 0)
    assert rep.chi2 == pytest.approx(1.0 / 51.0, rel=1e-15)
    assert 2.0 / 102.0 <= rep.chi2 <= 2.0 / 100.0
    assert math.isinf(rep.xi2_2)


def test_dicke_metrics_domain():
    with pytest.raises(ValueError):
        dicke_metrics(4, 3)
    with pytest.raises(ValueError):
        dicke_metrics(4, 0.5)


def test_dicke_metrics_match_pipeline():
    # coordinate Dicke states through the generic moment path
    for n, m in ((6, 1), (9, -1.5), (20, 4)):
        via_state = report(dicke_ground_state(n, m))
        closed = dicke_metrics(n, m)
        assert via_state.chi2 == pytest.approx(closed.chi2, abs=1e-12)
        assert via_state.xi1_2 == pytest.approx(closed.xi1_2, abs=1e-12)


def test_cat_state_metrics():
    rep2 = cat_state_metrics(2)
    assert rep2.chi2 == pytest.approx(0.5, abs=0.0)
    assert rep2.qcr == pytest.approx(0.5, abs=0.0)
    assert rep2.xi1_2 == 0.0
    rep100 = cat_state_metrics(100)
    assert rep100.qcr == pytest.approx(0.01, abs=0.0)
    assert math.isinf(rep100.xi2_2)
    for n in (1, 2, 3, 10, 64, 1000):
        assert cat_state_metrics(n).chi2 * n == pytest.approx(1.0, abs=0.0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cat_state_metrics_match_dense_moments(n):
    # The report's quantities on the dense cat vector: F = 4 max Var over
    # every axis, and xi1^2, xi2^2 from the least variance across the mean
    # spin (across z where it vanishes).  At N = 1 the cat is the coherent
    # state along x, with mean spin 1/2.
    _, sx, sy, sz = oracles.spin_matrices(n)
    psi = np.zeros(n + 1)
    psi[[0, -1]] = 1.0 / math.sqrt(2.0)
    ops = (sx, sy, sz)
    mean = np.array([(psi @ a @ psi).real for a in ops])
    cov = np.array([[(psi @ (a @ b + b @ a) @ psi).real / 2.0 for b in ops] for a in ops]) - np.outer(mean, mean)
    length = np.linalg.norm(mean)
    axis = mean / length if length > 1e-12 else np.array([0.0, 0.0, 1.0])
    across = np.linalg.svd(axis[None, :])[2][1:].T  # orthonormal basis of the plane across the axis
    vmin = np.linalg.eigvalsh(across.T @ cov @ across).min()
    fisher = 4.0 * np.linalg.eigvalsh(cov).max()
    rep = cat_state_metrics(n)
    assert rep.fisher == pytest.approx(fisher, abs=1e-12)
    assert rep.chi2 == pytest.approx(n / fisher, abs=1e-12)
    assert rep.xi1_2 == pytest.approx(4.0 * vmin / n, abs=1e-12)
    if length > 1e-12:
        assert rep.xi2_2 == pytest.approx(n * vmin / length**2, abs=1e-12)
    else:
        assert math.isinf(rep.xi2_2)


def test_cat_state_moment_identity():
    # (|S,S> + |S,-S>)/sqrt2 lies in the even block for even N; S+^2
    # couples its two components only at N = 2
    for n in (2, 4, 10):
        s = n / 2.0
        params = ModelParams(n, 1.0, 0.0)
        amps = np.zeros(build_sector(params, EVEN).size)
        amps[[0, -1]] = 1.0 / math.sqrt(2.0)
        gs = GroundState(params=params, parity=EVEN, energy=0.0, amplitudes=amps)
        obs = transverse_moments(gs)
        if n == 2:
            assert obs.sx2 == pytest.approx(1.0, rel=1e-15)
            assert obs.sy2 == pytest.approx(0.0, abs=1e-15)
        else:
            assert obs.sx2 == pytest.approx(s / 2.0, rel=1e-15)
            assert obs.sy2 == pytest.approx(s / 2.0, rel=1e-15)
        assert obs.sz2 == pytest.approx(s * s, rel=1e-15)
        assert obs.sz_mean == pytest.approx(0.0, abs=1e-15)
        xi1_2 = 4.0 * min(obs.sx2, obs.sy2) / n
        assert xi1_2 == pytest.approx(cat_state_metrics(n).xi1_2, abs=1e-15)


def test_parity_selection_rule_dense_cross_term():
    for n in (2, 4, 6, 8):
        for gamma, h in ((0.0, 0.4), (0.5, 0.9), (1.0, 1.3)):
            value = oracles.pauli_ground_cross_term(n, gamma, h)
            assert abs(value) < 1e-12


def test_uncertainty_relation_and_sum_rule_on_ground_states():
    for n in (4, 9, 16, 40):
        s = n / 2.0
        for gamma in (0.0, 0.5, 1.0):
            for h in (0.0, 0.5, 1.0, 1.5):
                gs = lmg_ground_state(ModelParams(n, gamma, h))
                obs = transverse_moments(gs)
                vmin, vmax = sorted((obs.sx2, obs.sy2))
                floor = 0.25 * obs.sz_mean**2
                assert vmin * vmax >= floor * (1.0 - 1e-9) - 1e-15
                total = obs.sx2 + obs.sy2 + obs.sz2
                assert total == pytest.approx(s * (s + 1.0), abs=1e-9 * max(1.0, s * s))
                assert min(obs.sx2, obs.sy2, obs.sz2) >= 0.0
                assert abs(obs.sz_mean) <= s + 1e-12
                assert obs.sz_mean**2 <= obs.sz2 + 1e-12


def test_report_inequality_suite_on_sweep():
    for n in (6, 25):
        for gamma in (0.0, 0.5, 1.0):
            for h in (0.0, 0.3, 0.8, 1.0, 1.4, 2.0):
                rep = report(lmg_ground_state(ModelParams(n, gamma, h)))
                assert rep.xi2_2 >= rep.chi2 * (1.0 - 1e-9)
                assert rep.xi1_2 * rep.chi2 <= 1.0 + 1e-9
                assert rep.xi1_2 <= rep.xi2_2 * (1.0 + 1e-9)
                assert rep.chi2 * rep.fisher == pytest.approx(float(n), rel=1e-12)


def test_isotropic_chi2_dichotomy():
    # chi2 = 1 exactly for |M| = S, below 1 otherwise
    for n in (6, 13):
        for h in (1.2, 2.0):
            rep = report(lmg_ground_state(ModelParams(n, 1.0, h)))
            assert rep.chi2 == pytest.approx(1.0, abs=1e-12)
    for n, h in ((10, 0.55), (100, 0.5)):
        rep = report(lmg_ground_state(ModelParams(n, 1.0, h)))
        assert rep.chi2 < 1.0 - 1e-6


def test_moments_on_the_support_match_the_padded_vector():
    # Windowed ground states (offset 0 at h = 1.5, mid-block at h = 0.5)
    # against the same states padded to the whole block.
    for h in (0.5, 1.5):
        gs = lmg_ground_state(ModelParams(2001, 0.5, h))
        assert gs.amplitudes.size < oracles.block_amplitudes(gs).size
        padded = GroundState(params=gs.params, parity=gs.parity, energy=gs.energy,
                             amplitudes=oracles.block_amplitudes(gs))
        on_support, whole = transverse_moments(gs), transverse_moments(padded)
        for name in ("sz_mean", "sz2", "sx2", "sy2"):
            assert getattr(on_support, name) == pytest.approx(getattr(whole, name), rel=1e-12)


@pytest.mark.parametrize("h,correction", [(0.5, 2.33), (1.5, 1.34)])
def test_finite_size_correction_holds_to_large_n(h, correction):
    # N (chi2 / tl_chi2 - 1) tends to a constant at gamma = 1/2; the windowed
    # solver keeps it from N = 1e5 to N = 1e7.
    def scaled(n):
        rep = report(lmg_ground_state(ModelParams(n, 0.5, h)))
        return n * (rep.chi2 / tl_prediction(h, 0.5, n).chi2 - 1.0)

    base = scaled(10**5)
    assert base == pytest.approx(correction, rel=1e-2)
    assert scaled(10**7) == pytest.approx(base, rel=1e-2)


def test_symmetric_phase_chi2_meets_the_thermodynamic_limit_at_n_1e8():
    n = 10**8
    rep = report(lmg_ground_state(ModelParams(n, 0.5, 1.5)))
    assert abs(rep.chi2 / tl_prediction(1.5, 0.5, n).chi2 - 1.0) < 1e-6
