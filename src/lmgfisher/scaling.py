"""Finite-size scaling fits: ordinary least squares in linear and log-log coordinates.

The fits run on Python floats: a CLI fit has a few points, and numpy here
would page in vector code that nothing else in a size-scaling process
runs after its last solve.  Every sum is an exactly rounded `math.fsum`
over deviations scaled by a power of two near their largest size, so no
product overflows or underflows whatever the scale of the points.
"""

from __future__ import annotations

import math
from operator import mul
from typing import NamedTuple


class ScalingFit(NamedTuple):
    """Power law value = amplitude * N^exponent fitted in log-log space."""

    exponent: float
    amplitude: float
    r_squared: float
    points_used: int


def _split(points) -> tuple[list[float], list[float]]:
    """The points' sizes and values as float lists; both must be finite."""
    pts = list(points)
    x = [float(p[0]) for p in pts]
    y = [float(p[1]) for p in pts]
    if not all(map(math.isfinite, x + y)):
        raise ValueError("sizes and values must be finite")
    return x, y


def _validate_scaling_points(x: list[float], v: list[float], minimum: int) -> None:
    if len(x) < minimum:
        raise ValueError(f"need at least {minimum} points, got {len(x)}")
    if any(a <= 0.0 for a in v):
        raise ValueError("values must be positive for a power-law fit")
    if any(a <= 0.0 for a in x):
        raise ValueError("sizes must be positive")
    if any(b <= a for a, b in zip(x, x[1:])):
        raise ValueError("sizes must be strictly increasing")


def _dot(a, b) -> float:
    return math.fsum(map(mul, a, b))


def _deviations(values: list[float]) -> tuple[float, int, list[float]]:
    """(mean, k, d): the deviations from the mean are 2^k d, with
    1 <= max |d| < 2 (k = 0 and d all zero when the values are equal)."""
    # summed and taken in units of a power of two near the largest |value|
    # (exact), so that no sum of finite values overflows and no subnormal
    # spread underflows; the rounded quotient can leave [min, max]: 3 x 0.1
    # would not be constant
    e = math.frexp(max(map(abs, values)))[1] - 1
    unit = math.ldexp(1.0, e)
    scaled = [v / unit for v in values]
    centre = min(max(math.fsum(scaled) / len(scaled), min(scaled)), max(scaled))
    d = [v - centre for v in scaled]
    top = max(map(abs, d))
    if top * unit == math.inf:  # finite values further apart than the float maximum
        raise ValueError("the fit is past the float range")
    if not top:
        return centre * unit, 0, d
    k = math.frexp(top)[1] - 1
    s = math.ldexp(1.0, k)  # dividing by it is exact
    return centre * unit, e + k, [x / s for x in d]


def fit_linear(points) -> tuple[float, float, float]:
    """Ordinary least squares y = slope x + intercept; returns (slope, intercept, r_squared).

    Constant y fits perfectly with slope 0 (r_squared = 1 by convention);
    degenerate x variance, and a spread, slope or intercept past the float
    range, raise ValueError.
    """
    x, y = _split(points)
    if len(x) < 2:
        raise ValueError(f"need at least 2 points, got {len(x)}")
    x_mean, kx, u = _deviations(x)
    if not any(u):
        raise ValueError("x values are degenerate (zero variance)")
    y_mean, ky, w = _deviations(y)
    b = _dot(u, w) / _dot(u, u)
    try:
        slope = math.ldexp(b, ky - kx)
    except OverflowError:
        raise ValueError("the fit is past the float range") from None
    intercept = y_mean - slope * x_mean
    resid = [q - b * p for p, q in zip(u, w)]
    r_squared = 1.0 if not any(w) else 1.0 - _dot(resid, resid) / _dot(w, w)
    if not all(map(math.isfinite, (slope, intercept, r_squared))):
        raise ValueError("the fit is past the float range")
    return slope, intercept, r_squared


def fit_power_law(points) -> ScalingFit:
    """Least-squares power law through (ln N, ln value); needs >= 3 points."""
    x, v = _split(points)
    _validate_scaling_points(x, v, 3)
    slope, intercept, r_squared = fit_linear(zip(map(math.log, x), map(math.log, v)))
    return ScalingFit(
        exponent=slope,
        amplitude=math.exp(intercept),
        r_squared=r_squared,
        points_used=len(x),
    )


def local_exponents(points) -> list[float]:
    """Pairwise slopes ln(v_{k+1}/v_k) / ln(N_{k+1}/N_k) for consecutive points.

    Each ratio is a difference of logs, so it neither overflows nor
    underflows however far apart the two points are.
    """
    x, v = _split(points)
    _validate_scaling_points(x, v, 2)
    lx, lv = list(map(math.log, x)), list(map(math.log, v))
    return [(lv[k + 1] - lv[k]) / (lx[k + 1] - lx[k]) for k in range(len(x) - 1)]
