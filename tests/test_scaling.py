import math
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from lmgfisher import ModelParams, lmg_ground_state, report, scaling
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
    # the rounded mean of three 0.1s is not 0.1; the deviations must still vanish
    assert fit_linear([(0.0, 0.1), (1.0, 0.1), (2.0, 0.1)]) == (0.0, 0.1, 1.0)


def test_fit_linear_degenerate_x():
    with pytest.raises(ValueError):
        fit_linear([(1.0, 2.0), (1.0, 3.0)])
    with pytest.raises(ValueError, match="degenerate"):
        fit_linear([(0.1, 1.0), (0.1, 2.0), (0.1, 3.0)])
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


@pytest.mark.parametrize("points, slope", [
    ([(1e200, 1.0), (2e200, 2.0), (3e200, 3.0)], 1e-200),
    ([(1e-200, 1.0), (2e-200, 2.0), (3e-200, 3.0)], 1e200),
], ids=["x-huge", "x-tiny"])
def test_fit_linear_at_extreme_x_scales(points, slope):
    # squares of the raw deviations would overflow to inf or underflow to 0
    assert fit_linear(points) == pytest.approx((slope, 0.0, 1.0), rel=1e-15, abs=1e-15)


def test_fit_linear_at_huge_y():
    # y = 1, 2, 3.1 fits with slope 1.05, intercept -1/15 and r^2 = 1323/1324
    slope, intercept, r2 = fit_linear([(1, 1e200), (2, 2e200), (3, 3.1e200)])
    assert slope == pytest.approx(1.05e200, rel=1e-15)
    assert intercept == pytest.approx(-1e200 / 15.0, rel=1e-13)
    assert r2 == pytest.approx(1323.0 / 1324.0, rel=1e-15)


def test_fit_linear_near_the_float_maximum():
    # x sums past the float maximum.  Dividing x by 2^1000 is exact, so that
    # fit has 2^1000 times the slope and the same intercept and r^2.
    x, y = [1e308, 1.5e308, 1.7e308], [1.0, 2.0, 3.0]
    slope, intercept, r2 = fit_linear(zip(x, y))
    ref_slope, ref_intercept, ref_r2 = fit_linear([(a / 2.0**1000, b) for a, b in zip(x, y)])
    assert (math.ldexp(slope, 1000), intercept, r2) == (ref_slope, ref_intercept, ref_r2)
    assert r2 == pytest.approx(49.0 / 52.0, rel=1e-15)


def test_fit_linear_at_subnormal_y():
    # y = 2^-1074 x is an exact line.  Its mean 1.5 x 2^-1074 is no float,
    # so deviations taken from the rounded mean would be (-2^-1074, 0).
    assert fit_linear([(1, 5e-324), (2, 1e-323)]) == (5e-324, 0.0, 1.0)


def test_fit_linear_across_the_whole_float_range():
    # x = -a, a, a with a = 1.7e308: the deviations (-4a/3, 2a/3, 2a/3) are
    # past the float range, but the fit (3 / (4a), 7/4, 3/4) is not
    assert fit_linear([(-1.7e308, 1), (1.7e308, 2), (1.7e308, 3)]) == (4.411764705882354e-309, 1.75, 0.75)


@pytest.mark.parametrize("points", [
    [(1, -1.7e308), (2, 1.7e308)],  # the slope, 3.4e308, is not a float
    [(1e154, 0.0), (1e154 + 1e138, 1e300)],  # the slope is 6.7e161, the intercept -6.7e315
], ids=["slope", "intercept"])
def test_fit_linear_past_the_float_range_is_a_value_error(points):
    with pytest.raises(ValueError, match="past the float range"):
        fit_linear(points)


def _exact_fit(points):
    """The least-squares (slope, intercept, r_squared) as exact rationals."""
    x, y = ([Fraction(v) for v in c] for c in zip(*points))
    x_mean, y_mean = sum(x) / len(x), sum(y) / len(y)
    sxx = sum((a - x_mean) ** 2 for a in x)
    sxy = sum((a - x_mean) * (b - y_mean) for a, b in zip(x, y))
    syy = sum((b - y_mean) ** 2 for b in y)
    slope = sxy / sxx
    return slope, y_mean - slope * x_mean, sxy * sxy / (sxx * syy) if syy else Fraction(1)


def _cli_like_points(rng):
    # a log-log ladder, or the (N, 1/chi2) pairs of a --mode size-scaling run
    ns = sorted(rng.sample(range(100, 100_001), rng.randint(2, 8)))
    exponent, amplitude = rng.uniform(-1.5, 0.5), rng.uniform(0.1, 10.0)
    values = [amplitude * n ** exponent * math.exp(rng.gauss(0.0, 0.05)) for n in ns]
    if rng.random() < 0.5:
        return [(math.log(n), math.log(v)) for n, v in zip(ns, values)]
    return [(n, 1.0 / v) for n, v in zip(ns, values)]


_EDGES = (0.0, 5e-324, 2.2250738585072014e-308, 1.0, 1.7e308, 1.7976931348623157e308)


def _extreme_float(rng, lowest, highest):
    sign = rng.choice((-1.0, 1.0))
    if rng.random() < 0.15:
        return sign * rng.choice(_EDGES)
    return sign * math.ldexp(rng.random(), rng.randint(lowest, highest))


def _extreme_points(rng):
    # each coordinate spans its own random range of binary exponents, from
    # subnormals to the float maximum
    spans = [sorted(rng.randint(-1074, 1024) for _ in range(2)) for _ in range(2)]
    return [(_extreme_float(rng, *spans[0]), _extreme_float(rng, *spans[1]))
            for _ in range(rng.randint(2, 8))]


def test_fit_linear_is_the_exact_fit_rounded_once():
    rng = random.Random(32)
    for k in range(1000):
        points = (_cli_like_points if k % 2 else _extreme_points)(rng)
        x = [p[0] for p in points]
        if min(x) == max(x):
            with pytest.raises(ValueError, match="degenerate"):
                fit_linear(points)
            continue
        slope, intercept, r_squared = _exact_fit(points)
        try:
            expected = float(slope), float(intercept), float(r_squared)
        except OverflowError:  # only the slope or the intercept can leave the float range
            with pytest.raises(ValueError, match="past the float range"):
                fit_linear(points)
            continue
        assert fit_linear(points) == expected, points


_LOG2_1E600 = 600.0 * math.log(10.0) / math.log(2.0)


@pytest.mark.parametrize("points, exponent", [
    ([(1, 1e-300), (2, 1e300)], _LOG2_1E600),
    ([(1, 1e300), (2, 1e-300)], -_LOG2_1E600),
    ([(1e-300, 1.0), (1e300, 2.0)], 1.0 / _LOG2_1E600),
], ids=["value-ratio-overflows", "value-ratio-underflows", "size-ratio-overflows"])
def test_local_exponents_at_extreme_ratios(points, exponent):
    assert local_exponents(points) == [pytest.approx(exponent, rel=1e-14)]


def _cli_like_pair(rng):
    n0, n1 = sorted(rng.sample(range(2, 10**9 + 1), 2))
    exponent, amplitude = rng.uniform(-1.5, 0.5), rng.uniform(0.1, 10.0)
    return [(n, amplitude * n ** exponent * math.exp(rng.gauss(0.0, 0.05))) for n in (n0, n1)]


def _wide_pair(rng):
    # sizes and values over the whole positive float range
    def positive():
        return math.ldexp(0.5 + rng.random() / 2, rng.randint(-1073, 1024))
    n0, n1 = sorted((positive(), positive()))
    return [(n0, positive()), (n1, positive())]


def test_local_exponents_are_the_exact_slopes_rounded_once():
    # The slope through two (ln N, ln value) points, computed in rationals
    # from the two float logs and rounded once; a quotient of float
    # differences of the logs is 1-2 ulps off on 0.2% of the CLI-like
    # pairs and 30% of the wide ones.
    rng = random.Random(37)
    for k in range(20000):
        points = (_wide_pair if k % 2 else _cli_like_pair)(rng)
        (lx0, ly0), (lx1, ly1) = [(math.log(n), math.log(v)) for n, v in points]
        exact = (Fraction(ly1) - Fraction(ly0)) / (Fraction(lx1) - Fraction(lx0))
        assert local_exponents(points) == [float(exact)], points


def test_local_exponents_of_sizes_with_equal_logs_are_degenerate():
    # 1e300 and the next float have the same log: no slope, and a
    # ValueError rather than a ZeroDivisionError
    with pytest.raises(ValueError, match="x values are degenerate"):
        local_exponents([(1e300, 1.0), (math.nextafter(1e300, math.inf), 2.0)])


def _polyfit_reference(points):
    """(slope, intercept, r_squared) from numpy.polyfit's least squares."""
    x, y = (np.array(c, dtype=float) for c in zip(*points))
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    return slope, intercept, 1.0 - (resid @ resid) / np.sum((y - y.mean()) ** 2)


def _seeded_ladder(seed):
    rng = np.random.default_rng(seed)
    ns = np.cumsum(rng.integers(50, 5000, size=rng.integers(3, 8)))
    exponent, amplitude = rng.uniform(-1.5, 0.5), rng.uniform(0.1, 10.0)
    return [(int(n), float(amplitude * n ** exponent * math.exp(rng.normal(0.0, 0.05)))) for n in ns]


def _readme_points(h):
    # README fig3 (h = 0.5, broken phase) and fig4 (h = 1.5, symmetric), gamma = 0.5
    return [(n, report(lmg_ground_state(ModelParams(n, 0.5, h))).chi2) for n in (100, 200, 300, 400)]


@pytest.mark.parametrize("points", [
    *(pytest.param(_seeded_ladder(seed), id=f"ladder-{seed}") for seed in range(8)),
    pytest.param(_readme_points(0.5), id="readme-fig3"),
    pytest.param(_readme_points(1.5), id="readme-fig4"),
])
def test_fits_agree_with_numpy_polyfit(points):
    logs = [(math.log(n), math.log(v)) for n, v in points]
    fit = fit_power_law(points)
    assert (fit.exponent, math.log(fit.amplitude), fit.r_squared) == pytest.approx(
        _polyfit_reference(logs), rel=1e-13)
    inverse = [(n, 1.0 / v) for n, v in points]
    assert fit_linear(inverse) == pytest.approx(_polyfit_reference(inverse), rel=1e-13)


def test_scaling_module_needs_no_numpy():
    # The fits run in every size-scaling process after its last solve; with
    # numpy blocked the module still imports and fits, and pulls in none of
    # the modules behind statistics.linear_regression.
    code = (
        "import importlib.util, sys; sys.modules['numpy'] = None; "
        f"spec = importlib.util.spec_from_file_location('scaling', {scaling.__file__!r}); "
        "mod = importlib.util.module_from_spec(spec); spec.loader.exec_module(mod); "
        "fit = mod.fit_power_law([(n, 7.0 / n) for n in (10, 20, 40)]); "
        "print(round(fit.exponent, 12), round(fit.amplitude, 12), mod.fit_linear([(0, 1), (1, 3)]), "
        "mod.local_exponents([(1, 1.0), (2, 4.0)]), "
        "sorted({'statistics', 'decimal', 'fractions'} & set(sys.modules)))"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert done.stdout == "-1.0 7.0 (2.0, 1.0, 1.0) [2.0] []\n"
