"""Finite-size scaling fits: ordinary least squares in linear and log-log coordinates."""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np


class ScalingFit(NamedTuple):
    """Power law value = amplitude * N^exponent fitted in log-log space."""

    exponent: float
    amplitude: float
    r_squared: float
    points_used: int


def _split(points) -> tuple[np.ndarray, np.ndarray]:
    """The points' sizes and values as float arrays; both must be finite."""
    pts = list(points)
    x = np.array([p[0] for p in pts], dtype=float)
    y = np.array([p[1] for p in pts], dtype=float)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("sizes and values must be finite")
    return x, y


def _validate_scaling_points(x: np.ndarray, v: np.ndarray, minimum: int) -> None:
    if x.size < minimum:
        raise ValueError(f"need at least {minimum} points, got {x.size}")
    if np.any(v <= 0.0):
        raise ValueError("values must be positive for a power-law fit")
    if np.any(x <= 0.0):
        raise ValueError("sizes must be positive")
    if np.any(np.diff(x) <= 0.0):
        raise ValueError("sizes must be strictly increasing")


def fit_linear(points) -> tuple[float, float, float]:
    """Ordinary least squares y = slope x + intercept; returns (slope, intercept, r_squared).

    Constant y fits perfectly with slope 0 (r_squared = 1 by convention);
    degenerate x variance raises ValueError.
    """
    x, y = _split(points)
    if x.size < 2:
        raise ValueError(f"need at least 2 points, got {x.size}")
    xc = x - x.mean()
    sxx = float(xc @ xc)
    if sxx == 0.0:
        raise ValueError("x values are degenerate (zero variance)")
    slope = float(xc @ (y - y.mean())) / sxx
    intercept = float(y.mean()) - slope * float(x.mean())
    resid = y - (slope * x + intercept)
    ss_res = float(resid @ resid)
    yc = y - y.mean()
    ss_tot = float(yc @ yc)
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return slope, intercept, r_squared


def fit_power_law(points) -> ScalingFit:
    """Least-squares power law through (ln N, ln value); needs >= 3 points."""
    x, v = _split(points)
    _validate_scaling_points(x, v, 3)
    slope, intercept, r_squared = fit_linear(zip(np.log(x), np.log(v)))
    return ScalingFit(
        exponent=slope,
        amplitude=math.exp(intercept),
        r_squared=r_squared,
        points_used=int(x.size),
    )


def local_exponents(points) -> list[float]:
    """Pairwise slopes ln(v_{k+1}/v_k) / ln(N_{k+1}/N_k) for consecutive points."""
    x, v = _split(points)
    _validate_scaling_points(x, v, 2)
    return [
        float(math.log(v[k + 1] / v[k]) / math.log(x[k + 1] / x[k]))
        for k in range(x.size - 1)
    ]
