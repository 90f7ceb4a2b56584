"""Finite-size scaling fits: ordinary least squares in linear and log-log coordinates.

The fits run on Python numbers: a CLI fit has a few points, and numpy here
would page in vector code that nothing else in a size-scaling process
runs after its last solve.  Every float is an integer over a power of two,
so the least-squares sums are exact integers, and each fitted value is one
correctly rounded integer quotient, whatever the scale of the points.
"""

from __future__ import annotations

import math
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


def _over_a_power_of_two(values: list[float]) -> tuple[int, list[int]]:
    """(k, u) with values[i] = u[i] / 2^k exactly, 2^k the largest denominator."""
    ratios = [v.as_integer_ratio() for v in values]
    unit = max(q for _, q in ratios)
    return unit.bit_length() - 1, [p * (unit // q) for p, q in ratios]


def fit_linear(points) -> tuple[float, float, float]:
    """Ordinary least squares y = slope x + intercept; returns (slope, intercept, r_squared).

    With x = u / 2^kx and y = w / 2^ky, the centred sums S_uu = n sum u^2 -
    (sum u)^2, S_uw and S_ww are exact integers, and each output is one
    correctly rounded quotient of integers: the exact least-squares value
    rounded once.  Constant y fits perfectly with slope 0 (r_squared = 1 by
    convention); degenerate x variance, and a slope or intercept past the
    float range, raise ValueError.
    """
    x, y = _split(points)
    n = len(x)
    if n < 2:
        raise ValueError(f"need at least 2 points, got {n}")
    kx, u = _over_a_power_of_two(x)
    ky, w = _over_a_power_of_two(y)
    su, sw = sum(u), sum(w)
    suu = n * sum(a * a for a in u) - su * su
    if not suu:
        raise ValueError("x values are degenerate (zero variance)")
    suw = n * sum(a * b for a, b in zip(u, w)) - su * sw
    sww = n * sum(b * b for b in w) - sw * sw
    try:
        slope = (suw << kx) / (suu << ky)
        intercept = (sw * suu - suw * su) / ((n * suu) << ky)
    except OverflowError:
        raise ValueError("the fit is past the float range") from None
    r_squared = suw * suw / (suu * sww) if sww else 1.0
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
