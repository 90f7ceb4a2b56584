"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them on success).

Known red: the critical-point exponent windows in criterion 6.  The
computed ground states give chi^2 ~ N^(-1/3) at h = 1 (and the
Cramer-Rao bound ~ N^(-2/3)), which follows from the moment laws
4<S_x^2>/N^2 ~ N^(-2/3); the encoded window around -2/3 for chi^2
itself is inconsistent with those laws and cannot be met.  The check is
kept as written rather than recalibrated.
"""

import math
from functools import lru_cache

import numpy as np
import pytest

import oracles
from lmgfisher.analytic import (
    isotropic_ground_m,
    isotropic_level_crossings,
    tl_prediction,
)
from lmgfisher.metrology import (
    dicke_metrics,
    report,
    transverse_moments,
)
from lmgfisher.scaling import fit_power_law, local_exponents
from lmgfisher.solver import lmg_ground_state
from lmgfisher.spincore import ModelParams

REL_SLACK = 1e-9

CRITERION_1_GRID = [
    (n, gamma, h)
    for n in range(2, 13)
    for gamma in (0.0, 0.5, 1.0)
    for h in (0.0, 0.5, 0.99, 1.0, 1.5)
]
CRITERION_2_SIZES = (10, 100, 1000)
CRITERION_3_CASES = [(500, 0.02), (2000, 0.005)]
CRITERION_4_SIZES = (100, 200, 300, 400)
CRITERION_5_SIZES = (100, 200, 300, 400)
CRITERION_6_SIZES = (256, 512, 1024, 2048)


@lru_cache(maxsize=None)
def ground(n, gamma, h):
    return lmg_ground_state(ModelParams(n_spins=n, gamma=gamma, h=h))


@lru_cache(maxsize=None)
def ground_report(n, gamma, h):
    return report(ground(n, gamma, h))


def criterion_2_fields(n):
    """Plateau midpoints (off every crossing) plus symmetric-phase points."""
    crossings = isotropic_level_crossings(n)
    mids = [0.5 * (a + b) for a, b in zip(crossings, crossings[1:])]
    step = max(1, len(mids) // 8)
    sampled = mids[::step][:8]
    return sampled + [0.5 * crossings[-1], 1.0, 1.25, 2.0]


def all_checked_states():
    """Every (n, gamma, h) that criteria 1-6 solve."""
    seen = set(CRITERION_1_GRID)
    for n in CRITERION_2_SIZES:
        for h in criterion_2_fields(n):
            seen.add((n, 1.0, h))
    for n, _ in CRITERION_3_CASES:
        for h in (1.2, 1.5, 2.0):
            seen.add((n, 0.5, h))
    for n in CRITERION_4_SIZES:
        seen.add((n, 0.5, 0.5))
    for n in CRITERION_5_SIZES:
        seen.add((n, 0.5, 1.5))
    for n in CRITERION_6_SIZES:
        seen.add((n, 0.5, 1.0))
    return sorted(seen)


def announce(number, description, passed, detail=""):
    tag = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"[{tag}] criterion {number}: {description}{suffix}"
    print(line)
    assert passed, line


def test_criterion_1_oracle_equivalence():
    worst = 0.0
    for n, gamma, h in CRITERION_1_GRID:
        gs = ground(n, gamma, h)
        obs = transverse_moments(gs)
        energy, dense = oracles.dense_observables(n, gamma, h)
        deviations = [
            abs(gs.energy - energy),
            abs(obs.sz_mean - dense["sz_mean"]),
            abs(obs.sz2 - dense["sz2"]),
            abs(obs.sx2 - dense["sx2"]),
            abs(obs.sy2 - dense["sy2"]),
            abs(dense["cross"]),
        ]
        worst = max(worst, max(deviations))
    announce(1, "tridiagonal pipeline matches dense diagonalization for N <= 12",
             worst <= 1e-10, f"worst deviation {worst:.3e}")


def test_criterion_2_isotropic_exactness():
    worst_chi = 0.0
    ok = True
    for n in CRITERION_2_SIZES:
        crossings = isotropic_level_crossings(n)
        for j, hj in enumerate(crossings):
            ok &= abs(hj - (1.0 - (2 * j + 1) / n)) <= 1e-12
        for h in criterion_2_fields(n):
            m0 = isotropic_ground_m(n, h)
            gs = ground(n, 1.0, h)
            m = gs.sector().m_values
            peak = m[int(np.argmax(np.abs(gs.amplitudes)))]
            ok &= peak == m0
            closed = dicke_metrics(n, m0)
            rep = ground_report(n, 1.0, h)
            worst_chi = max(worst_chi, abs(rep.chi2 - closed.chi2))
    ok &= worst_chi <= 1e-10
    announce(2, "isotropic M0, crossings and Dicke chi^2 reproduced",
             ok, f"worst chi^2 deviation {worst_chi:.3e}")


def test_criterion_3_symmetric_phase_analytics():
    worst = {}
    ok = True
    for n, tolerance in CRITERION_3_CASES:
        worst_rel = 0.0
        for h in (1.2, 1.5, 2.0):
            closed = tl_prediction(h, 0.5, n).chi2
            rep = ground_report(n, 0.5, h)
            worst_rel = max(worst_rel, abs(rep.chi2 - closed) / closed,
                            abs(rep.xi1_2 - closed) / closed)
        worst[n] = worst_rel
        ok &= worst_rel <= tolerance
    announce(3, "symmetric-phase chi^2 and xi1^2 match sqrt((h-1)/(h-gamma))",
             ok, ", ".join(f"N={n}: {w:.4%}" for n, w in worst.items()))


def test_criterion_4_broken_phase_heisenberg_scaling():
    points = [(n, ground_report(n, 0.5, 0.5).chi2) for n in CRITERION_4_SIZES]
    fit = fit_power_law(points)
    products = {n: n * 0.75 * chi2 for n, chi2 in points if n >= 200}
    ok = (-1.05 <= fit.exponent <= -0.95 and fit.r_squared > 0.999
          and all(0.9 <= v <= 1.1 for v in products.values()))
    announce(4, "broken-phase chi^2 scales as 1/N with unit 1/((N+2)(1-h^2)) amplitude",
             ok, f"exponent {fit.exponent:.4f}, r^2 {fit.r_squared:.6f}")


def test_criterion_5_symmetric_phase_size_independence():
    values = [ground_report(n, 0.5, 1.5).chi2 for n in CRITERION_5_SIZES]
    spread = (max(values) - min(values)) / min(values)
    announce(5, "symmetric-phase chi^2 spread across N below 1%",
             spread < 0.01, f"spread {spread:.4%}")


def test_criterion_6_critical_scaling_window():
    chi_points = [(n, ground_report(n, 0.5, 1.0).chi2) for n in CRITERION_6_SIZES]
    chi_exponents = local_exponents(chi_points)
    qcr_points = [(n, ground_report(n, 0.5, 1.0).qcr) for n in CRITERION_6_SIZES]
    qcr_exponents = local_exponents(qcr_points)
    target = -2.0 / 3.0
    in_window = all(-0.78 <= a <= -0.58 for a in chi_exponents)
    distances = [abs(a - target) for a in chi_exponents]
    monotone = all(b <= a + 1e-12 for a, b in zip(distances, distances[1:]))
    qcr_window = all(-0.89 <= a <= -0.79 for a in qcr_exponents)
    ok = in_window and monotone and qcr_window
    announce(6, "critical chi^2 local exponents sit in [-0.78, -0.58] drifting to -2/3, "
                "QCR exponents in the -5/6 window",
             ok,
             f"chi^2 exponents {['%.4f' % a for a in chi_exponents]}, "
             f"qcr exponents {['%.4f' % a for a in qcr_exponents]}")


def test_criterion_7_inequality_suite():
    states = all_checked_states()
    checked = 0
    for n, gamma, h in states:
        gs = ground(n, gamma, h)
        rep = ground_report(n, gamma, h)
        obs = transverse_moments(gs)
        vmin, vmax = sorted((obs.sx2, obs.sy2))
        s = n / 2.0
        assert rep.xi2_2 >= rep.chi2 * (1.0 - REL_SLACK)
        assert rep.xi1_2 * rep.chi2 <= 1.0 + REL_SLACK
        assert rep.xi1_2 <= rep.xi2_2 * (1.0 + REL_SLACK)
        floor = 0.25 * obs.sz_mean**2
        assert vmin * vmax >= floor * (1.0 - REL_SLACK) - 1e-15
        total = obs.sx2 + obs.sy2 + obs.sz2
        assert abs(total - s * (s + 1.0)) <= REL_SLACK * max(1.0, s * s)
        checked += 1
    announce(7, "inequality suite holds on every state from criteria 1-6",
             checked == len(states), f"{checked} states")


def test_criterion_8_squeezing_boundary():
    below = ground_report(400, 0.25, 0.45).xi1_2
    above = ground_report(400, 0.25, 0.55).xi1_2
    ok = below > 1.0 > above
    announce(8, "xi1^2 crosses 1 between h = 0.45 and h = 0.55 at gamma = 1/4",
             ok, f"xi1^2(0.45) = {below:.4f}, xi1^2(0.55) = {above:.4f}")


def test_criterion_9_cat_state():
    from lmgfisher.metrology import cat_state_metrics

    ok = True
    for n in (2, 10, 100):
        rep = cat_state_metrics(n)
        ok &= rep.chi2 * n == 1.0
        ok &= rep.qcr == 1.0 / n
        ok &= math.isinf(rep.xi2_2)
    announce(9, "cat state reaches chi^2 N = 1 and QCR bound 1/N exactly", ok)
