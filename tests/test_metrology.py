import math

import numpy as np
import pytest

import oracles
from lmgfisher.metrology import (
    cat_state_metrics,
    dicke_metrics,
    qfi,
    report,
    transverse_moments,
)
from lmgfisher.solver import GroundState, lmg_ground_state
from lmgfisher.spincore import EVEN, ODD, ModelParams, build_sector, parity_of


def dicke_ground_state(n, m):
    """Coordinate Dicke state |S=n/2, M=m> wrapped as a GroundState."""
    params = ModelParams(n, 1.0, 0.0)
    parity = parity_of(params.total_spin, m)
    sector = build_sector(params, parity)
    amps = np.zeros(sector.dimension)
    amps[int(np.nonzero(sector.m_values == m)[0][0])] = 1.0
    return GroundState(params=params, parity=parity, energy=0.0, amplitudes=amps)


def test_moments_of_top_dicke_state():
    obs = transverse_moments(dicke_ground_state(2, 1))
    assert obs.sx2 == pytest.approx(0.5, abs=0.0)
    assert obs.sy2 == pytest.approx(0.5, abs=0.0)
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
    assert rep.chi2 == pytest.approx(1.0, abs=0.0)
    assert rep.xi1_2 == pytest.approx(1.0, abs=0.0)
    assert rep.fisher == pytest.approx(float(n), abs=0.0)
    assert rep.qcr == pytest.approx(1.0 / math.sqrt(n), rel=1e-15)
    assert rep.shot_noise == rep.qcr


def test_report_dicke_m0():
    rep = report(dicke_ground_state(4, 0))
    assert rep.chi2 == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert rep.xi1_2 == pytest.approx(3.0, rel=1e-15)
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


def test_qfi_direction_resolved():
    gs = lmg_ground_state(ModelParams(12, 0.0, 0.5))
    rep = report(gs)
    obs = transverse_moments(gs)
    assert qfi(gs) == pytest.approx(rep.fisher, abs=0.0)
    assert qfi(gs, 0.0) == pytest.approx(4.0 * obs.sx2, rel=1e-14)
    assert qfi(gs, math.pi / 2.0) == pytest.approx(4.0 * obs.sy2, rel=1e-14)


def test_dicke_metrics_values():
    for n in (4, 10, 100):
        assert dicke_metrics(n, n / 2).chi2 == 1.0
    rep = dicke_metrics(100, 25)
    s = 50.0
    assert rep.chi2 == pytest.approx(100.0 / (2.0 * (s * s + s - 625.0)), rel=1e-15)
    assert rep.xi1_2 * rep.chi2 == pytest.approx(1.0, rel=1e-14)
    assert rep.xi2_2 == pytest.approx(100.0 * (s * s + s - 625.0) / 2.0 / 625.0, rel=1e-14)


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


def test_cat_state_moment_identity():
    # (|S,S> + |S,-S>)/sqrt2 lies in the even block for even N; S+^2
    # couples its two components only at N = 2
    for n in (2, 4, 10):
        s = n / 2.0
        params = ModelParams(n, 1.0, 0.0)
        amps = np.zeros(build_sector(params, EVEN).dimension)
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
