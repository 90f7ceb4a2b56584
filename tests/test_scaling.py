import math

import numpy as np
import pytest

from lmgfisher.scaling import ScalingFit, fit_linear, fit_power_law, local_exponents


def test_exact_inverse_law():
    points = [(n, 7.0 / n) for n in (10, 20, 40, 80)]
    fit = fit_power_law(points)
    assert fit.exponent == pytest.approx(-1.0, abs=1e-13)
    assert fit.amplitude == pytest.approx(7.0, rel=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.points_used == 4


def test_exact_two_thirds_law():
    points = [(n, 2.0 * n ** (-2.0 / 3.0)) for n in (16, 64, 256)]
    fit = fit_power_law(points)
    assert fit.exponent == pytest.approx(-2.0 / 3.0, abs=1e-13)
    assert fit.amplitude == pytest.approx(2.0, rel=1e-12)


def test_power_law_validation():
    with pytest.raises(ValueError):
        fit_power_law([(1, 1.0), (2, 0.5)])
    with pytest.raises(ValueError):
        fit_power_law([(1, 1.0), (2, -0.5), (3, 0.1)])
    with pytest.raises(ValueError):
        fit_power_law([(1, 1.0), (2, 0.5), (2, 0.4)])
    with pytest.raises(ValueError):
        fit_power_law([(0, 1.0), (2, 0.5), (3, 0.4)])


@pytest.mark.parametrize("call", [
    lambda: fit_power_law([(1, 1.0), (2, math.nan), (3, 1.0)]),
    lambda: fit_power_law([(1, 1.0), (2, math.inf), (3, 1.0)]),
    lambda: fit_power_law([(1, 1.0), (2, 0.5), (math.inf, 0.1)]),
    lambda: fit_linear([(1, 1.0), (math.inf, 2.0)]),
    lambda: fit_linear([(1, 1.0), (2, math.nan)]),
    lambda: local_exponents([(1, 1.0), (2, math.nan)]),
], ids=["power-value-nan", "power-value-inf", "power-size-inf", "linear-x-inf", "linear-y-nan",
        "local-value-nan"])
def test_fits_reject_non_finite_points(call):
    # a ValueError, never a fit or exponent of nan
    with pytest.raises(ValueError, match="must be finite"):
        call()


def test_local_exponents_exact_laws():
    inverse = [(n, 5.0 / n) for n in (8, 16, 32)]
    assert local_exponents(inverse) == pytest.approx([-1.0, -1.0], abs=1e-13)
    two_thirds = [(n, n ** (-2.0 / 3.0)) for n in (9, 27, 81)]
    assert local_exponents(two_thirds) == pytest.approx([-2.0 / 3.0] * 2, abs=1e-13)
    with pytest.raises(ValueError):
        local_exponents([(4, 1.0)])


def test_fit_linear_exact():
    slope, intercept, r2 = fit_linear([(x, 3.0 * x + 1.0) for x in (0.0, 1.0, 2.0, 5.0)])
    assert slope == pytest.approx(3.0, abs=1e-13)
    assert intercept == pytest.approx(1.0, abs=1e-13)
    assert r2 == pytest.approx(1.0, abs=0.0)


def test_fit_linear_constant_y():
    slope, intercept, r2 = fit_linear([(0.0, 2.0), (1.0, 2.0), (2.0, 2.0)])
    assert slope == 0.0
    assert intercept == 2.0
    assert r2 == 1.0


def test_fit_linear_degenerate_x():
    with pytest.raises(ValueError):
        fit_linear([(1.0, 2.0), (1.0, 3.0)])
    with pytest.raises(ValueError):
        fit_linear([(1.0, 2.0)])


def test_scale_equivariance():
    rng = np.random.default_rng(5)
    base = [(n, float(3.5 * n ** (-0.8) * math.exp(rng.normal(0.0, 0.01))))
            for n in (50, 100, 200, 400, 800)]
    fit = fit_power_law(base)
    for c in (0.001, 2.0, 1e6):
        scaled = fit_power_law([(n, c * v) for n, v in base])
        assert scaled.exponent == pytest.approx(fit.exponent, abs=1e-12)
        assert scaled.amplitude == pytest.approx(c * fit.amplitude, rel=1e-12)


def test_power_law_and_linear_reparametrization_agree():
    rng = np.random.default_rng(9)
    points = [(n, float(1.7 * n ** (-1.2) * math.exp(rng.normal(0.0, 0.05))))
              for n in (10, 30, 90, 270)]
    fit = fit_power_law(points)
    slope, intercept, r2 = fit_linear([(math.log(n), math.log(v)) for n, v in points])
    assert fit.exponent == pytest.approx(slope, abs=1e-12)
    assert fit.amplitude == pytest.approx(math.exp(intercept), rel=1e-12)
    assert fit.r_squared == pytest.approx(r2, abs=1e-12)
    assert isinstance(fit, ScalingFit)
