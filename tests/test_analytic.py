import math
from collections.abc import Iterator

import numpy as np
import pytest

import oracles
from lmgfisher.analytic import (
    CriticalPointError,
    IsotropicBrokenError,
    Phase,
    classify_phase,
    critical_scaling_prediction,
    isotropic_energy,
    isotropic_ground_m,
    isotropic_level_crossings,
    tl_prediction,
)
from lmgfisher.metrology import cat_state_metrics, dicke_metrics, report
from lmgfisher.solver import lmg_ground_state
from lmgfisher.spincore import ModelParams, spin_flip_count


def test_phase_classification():
    assert classify_phase(2.0) is Phase.SYMMETRIC
    assert classify_phase(1.0) is Phase.CRITICAL
    assert classify_phase(0.3) is Phase.BROKEN
    with pytest.raises(ValueError):
        classify_phase(-0.1)


@pytest.mark.parametrize("call", [
    lambda: classify_phase(math.nan),
    lambda: classify_phase(math.inf),
    lambda: tl_prediction(math.nan, 0.5, 10),
    lambda: tl_prediction(math.inf, 0.5, 10),
    lambda: isotropic_ground_m(10, math.nan),
    lambda: isotropic_energy(10, 5, math.nan),
    lambda: isotropic_energy(10, math.inf, 0.5),
    lambda: spin_flip_count(2, math.inf),
    lambda: dicke_metrics(4, math.inf),
], ids=["phase-nan", "phase-inf", "tl-nan", "tl-inf", "ground-m-nan",
        "energy-h-nan", "energy-m-inf", "flips-inf", "dicke-inf"])
def test_closed_forms_reject_non_finite_input(call):
    # a plain ValueError: not a diverging closed form, and not a nan result
    with pytest.raises(ValueError) as caught:
        call()
    assert type(caught.value) is ValueError


@pytest.mark.parametrize("call", [
    lambda: tl_prediction(2.0, 0.5, 10**400),
    lambda: tl_prediction(2.0, 0.5, 10.5),
    lambda: dicke_metrics(10**400, 0),
    lambda: cat_state_metrics(10**400),
    lambda: isotropic_ground_m(10**400, 0.5),
    lambda: isotropic_energy(10**400, 0, 0.5),
    lambda: isotropic_level_crossings(10**400),
    lambda: tl_prediction(0.5, 0.5, True),
    lambda: cat_state_metrics(True),
], ids=["tl-huge", "tl-fraction", "dicke-huge", "cat-huge", "ground-m-huge", "energy-huge",
        "crossings-huge", "tl-bool", "cat-bool"])
def test_closed_forms_take_the_model_n_rule(call):
    # the N domain of ModelParams: an integer, not a bool, from 1 to the
    # float maximum
    with pytest.raises(ValueError) as caught:
        call()
    assert type(caught.value) is ValueError


_CLOSED_FORMS = {  # each public closed form, with one valid value of every argument
    "phase": (classify_phase, (0.3,)),
    "energy": (isotropic_energy, (100, 10.0, 0.3)),
    "ground-m": (isotropic_ground_m, (100, 0.3)),
    "crossings": (isotropic_level_crossings, (10,)),
    "tl": (tl_prediction, (0.3, 0.5, 100)),
    "dicke": (dicke_metrics, (100, 10.0)),
    "cat": (cat_state_metrics, (100,)),
}


def _typed_bits(result):
    """The Python type, and for a float the bits, of each value a closed form gives."""
    values = list(result) if isinstance(result, (tuple, Iterator)) else [result]
    return [(type(v), v.hex() if type(v) is float else v) for v in values]


@pytest.mark.parametrize("name", _CLOSED_FORMS)
def test_closed_forms_take_the_model_fields(name):
    # One domain for N, gamma, h and M: a bool is none of them, and a numpy
    # int64 or float32 is the Python int or float of its value, so the
    # arithmetic and the results are those of the Python call, bit for bit.
    form, args = _CLOSED_FORMS[name]
    for i in range(len(args)):
        with pytest.raises(ValueError) as caught:
            form(*args[:i], True, *args[i + 1:])
        assert type(caught.value) is ValueError
    numpy_args = [np.int64(a) if type(a) is int else np.float32(a) for a in args]
    python_args = [int(a) if type(a) is np.int64 else float(a) for a in numpy_args]
    assert _typed_bits(form(*numpy_args)) == _typed_bits(form(*python_args))


def test_isotropic_energy_formula():
    # 2M^2/N - 2hM - N/2
    assert isotropic_energy(2, 1, 2.0) == pytest.approx(-4.0, abs=0.0)
    assert isotropic_energy(4, 0, 0.0) == pytest.approx(-2.0, abs=0.0)
    with pytest.raises(ValueError):
        isotropic_energy(4, 3, 0.0)


@pytest.mark.parametrize("n,h", [(4, 1e300), (1001, 1e200), (2, 8.9e307)])
def test_isotropic_energy_is_finite_wherever_h_n_is(n, h):
    # The h^2 terms of (2/N)(M - hN/2)^2 - (N/2)(1 + h^2) cancel; squaring
    # first overflows at h ~ 1e154.  At h >= 1, M0 = N/2 and E = -h N.
    m0 = isotropic_ground_m(n, h)
    assert isotropic_energy(n, m0, h) == -h * n
    assert math.isfinite(isotropic_energy(n, -n / 2.0, h))


def test_isotropic_energy_minimizer_matches_ground_m():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        n = int(rng.integers(2, 201))
        h = float(rng.uniform(0.0, 2.0))
        s = n / 2.0
        m_all = s - np.arange(n + 1)
        energies = np.array([isotropic_energy(n, m, h) for m in m_all])
        m0 = isotropic_ground_m(n, h)
        assert isotropic_energy(n, m0, h) == energies.min()
        minima = m_all[energies == energies.min()]
        if minima.size == 1:
            assert m0 == minima[0]
        else:
            assert m0 == minima.max()  # ties resolve to the larger M


def test_isotropic_ground_m_values():
    assert isotropic_ground_m(100, 1.3) == 50.0
    assert isotropic_ground_m(100, 0.5) == 25.0
    assert isotropic_ground_m(100, 0.0) == 0.0
    assert isotropic_ground_m(5, 0.0) == 0.5  # odd N tie at h=0 resolves up


def test_level_crossings():
    assert list(isotropic_level_crossings(100))[0] == pytest.approx(0.99, rel=1e-15)
    assert list(isotropic_level_crossings(4)) == [0.75, 0.25]
    assert list(isotropic_level_crossings(1)) == []  # its one crossing, h = 0, is not h > 0


def test_level_crossing_degeneracy_property():
    for n in (4, 10, 100):
        s = n / 2.0
        for j, hj in enumerate(isotropic_level_crossings(n)):
            upper = isotropic_energy(n, s - j, hj)
            lower = isotropic_energy(n, s - j - 1, hj)
            assert upper == pytest.approx(lower, abs=1e-10 * max(1.0, abs(upper)))
            # M0 steps across the crossing
            assert isotropic_ground_m(n, hj + 1e-6) == s - j
            assert isotropic_ground_m(n, hj - 1e-6) == s - j - 1
            argument = n * (1.0 - hj) / 2.0
            if argument == math.floor(argument) + 0.5:
                # the float crossing is an exact tie: resolves to larger M
                assert isotropic_ground_m(n, hj) == s - j


def test_level_crossing_tie_resolution_exact_halves():
    # dyadic fields make the round argument an exact half-integer
    assert isotropic_ground_m(4, 0.75) == 2.0
    assert isotropic_ground_m(4, 0.25) == 1.0
    assert isotropic_ground_m(8, 0.875) == 4.0
    assert isotropic_ground_m(10, 0.5) == 3.0  # x = 2.5 exactly, larger M of the pair (3, 2)


def test_tl_prediction_bogoliubov_squeeze_ratio():
    # <S_x^2>/<S_y^2> = (1 + eps)/(1 - eps) with eps the Bogoliubov tanh:
    # eps = 0 (no squeezing) at gamma = 1, eps = 1/3 at h = 2, gamma = 0
    tl = tl_prediction(1.5, 1.0, 100)
    assert tl.sx2 == tl.sy2 == 25.0
    assert tl.chi2 == tl.xi1_2 == 1.0
    tl = tl_prediction(2.0, 0.0, 100)
    assert tl.sx2 / tl.sy2 == pytest.approx((1.0 + 1.0 / 3.0) / (1.0 - 1.0 / 3.0), rel=1e-15)


def test_tl_prediction_symmetric():
    tl = tl_prediction(2.0, 0.5, 400)
    expected = math.sqrt(1.5**-1)
    assert tl.chi2 == pytest.approx(expected, rel=1e-12)
    assert tl.xi1_2 == pytest.approx(expected, rel=1e-12)
    assert tl.sx2 == pytest.approx(100.0 * math.sqrt(1.5), rel=1e-12)
    assert tl.sy2 == pytest.approx(100.0 / math.sqrt(1.5), rel=1e-12)


def test_tl_prediction_far_field_limit():
    previous = 0.0
    for h in (5.0, 50.0, 500.0, 5000.0):
        chi2 = tl_prediction(h, 0.5, 100).chi2
        assert chi2 > previous
        previous = chi2
    assert previous == pytest.approx(1.0, abs=1e-4)


def test_tl_prediction_broken():
    tl = tl_prediction(0.5, 0.5, 400)
    assert tl.xi1_2 == pytest.approx(math.sqrt(1.5), rel=1e-12)
    assert tl.chi2 == pytest.approx(1.0 / (402.0 * 0.75), rel=1e-12)
    # full moment expression including the O(N) correction
    corr = ((1.0 - 0.5) * 0.25 - (2.0 - 0.25 - 0.5) * 0.75) / math.sqrt(0.75 * 0.5)
    expected_sx2 = (400.0**2 / 4.0 + 200.0) * 0.75 + 100.0 * corr
    assert tl.sx2 == pytest.approx(expected_sx2, rel=1e-12)


def test_tl_prediction_signals():
    with pytest.raises(CriticalPointError):
        tl_prediction(1.0, 0.5, 100)
    with pytest.raises(IsotropicBrokenError):
        tl_prediction(0.5, 1.0, 100)


def test_tl_phase_boundary_continuity():
    values = [tl_prediction(h, 0.5, 100).chi2 for h in (1.5, 1.1, 1.01, 1.001, 1.0001)]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert values[-1] < 0.02


def test_tl_symmetric_consistency_identity():
    # N / (4 max moment) equals the closed form on a fine grid
    for h in np.linspace(1.01, 5.0, 200):
        for gamma in (0.0, 0.3, 0.9):
            tl = tl_prediction(float(h), gamma, 256)
            from_moments = 256.0 / (4.0 * max(tl.sx2, tl.sy2))
            assert from_moments == pytest.approx(tl.chi2, rel=1e-12)


def test_squeezing_boundary():
    # broken-phase xi1^2 crosses 1 at h = sqrt(gamma)
    for gamma, h in ((0.25, 0.5), (0.36, 0.6)):
        assert tl_prediction(h, gamma, 100).xi1_2 == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValueError, match="gamma"):
        tl_prediction(0.5, -0.5, 100)


def test_isotropic_reduction_matches_pipeline():
    # gamma = 1, h < 1: Dicke closed form equals the solver + report chain
    for n, h in ((10, 0.42), (100, 0.5), (100, 0.87)):
        m0 = isotropic_ground_m(n, h)
        closed = dicke_metrics(n, m0)
        rep = report(lmg_ground_state(ModelParams(n, 1.0, h)))
        assert rep.chi2 == pytest.approx(closed.chi2, abs=1e-12)
        assert rep.xi1_2 == pytest.approx(closed.xi1_2, abs=1e-12)


def test_isotropic_energy_is_twice_the_model_energy_plus_one():
    # The closed form is 2 <H> + 1, not <H>: at N = 100, h = 0.5 the
    # ground energy is -31.75 and the closed form -62.5.
    for n, h in ((100, 0.5), (10, 0.42), (101, 0.87), (64, 1.5), (7, 0.0)):
        m0 = isotropic_ground_m(n, h)
        energy = lmg_ground_state(ModelParams(n, 1.0, h)).energy
        assert isotropic_energy(n, m0, h) == pytest.approx(2.0 * energy + 1.0, rel=1e-14, abs=1e-12)


@pytest.mark.parametrize("n", [100, 1000, 10000])
@pytest.mark.parametrize("gamma", [0.0, 0.5, 0.99])
def test_bogoliubov_ground_energy_is_exact_to_order_one_over_n(n, gamma):
    # The solver's ground energy against the one-mode Holstein-Primakoff
    # expansion: away from h = 1, N (E - E_B) tends to a constant of order
    # 0.1-0.6: -0.0501 at gamma = 0.5, h = 0.5 and 0.0839 at gamma = 0, h = 2.
    for h in (0.0, 0.4, 0.8, 1.2, 2.0, 3.0):
        energy = lmg_ground_state(ModelParams(n, gamma, h)).energy
        assert n * abs(energy - oracles.bogoliubov_ground_energy(n, gamma, h)) <= 1.0, h


def test_critical_scaling_prediction_fields():
    exps = critical_scaling_prediction()
    assert exps.chi2_exponent == pytest.approx(-2.0 / 3.0, abs=0.0)
    assert exps.xi2_exponent == pytest.approx(-2.0 / 3.0, abs=0.0)
    assert exps.qcr_exponent == pytest.approx(-5.0 / 6.0, abs=0.0)
    assert exps.sx2_moment_exponent == pytest.approx(-2.0 / 3.0, abs=0.0)
    assert exps.sy2_moment_exponent == pytest.approx(-4.0 / 3.0, abs=0.0)


@pytest.mark.parametrize("h", [0.5, 1.5])
def test_tl_prediction_computes_in_float64(h):
    # numpy float32 fields give the Python-float result, in Python floats:
    # computed in float32 (NEP 50), chi2 was 1.7e-8 off at h = 1.5.
    h32, g32 = np.float32(h), np.float32(0.3)
    got = tl_prediction(h32, g32, 1000)
    assert got == tl_prediction(float(h32), float(g32), 1000)
    assert all(type(value) is float for value in got)
