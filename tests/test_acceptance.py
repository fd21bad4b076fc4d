"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Criteria 3 and 4 assert hazard-rate, dispersive and less-uncertainty
dominance of series systems under location majorization.  Those orderings
are mathematically false for this family (the hazard curves of heterogeneous
series systems cross; see tests/test_orders.py for witnesses), so the two
tests document the expected shortfall rather than pass.  The checks
themselves are exercised at full fidelity either way.
"""

import math
import time

import numpy as np
import pytest

import gumbelsys as gs
from gumbelsys import Direction, Outcome
from gumbelsys import entropy as en
from gumbelsys import orders as od
from gumbelsys import systems as sy
from gumbelsys.majorization import random_majorization_pair
from gumbelsys.rng import stream
from gumbelsys.simulate import empirical_cdf_dominance, sample_pair

from conftest import residual_forms
from lemmas import Curvature, check_lemma_phi, schur_test

SEED = 20250809
EULER_GAMMA = 0.577215664901533  # 15 digits
FG = Direction.FIRST_GREATER
FS = Direction.FIRST_SMALLER

SIGMAS = (0.5, 1.0, 2.0)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {detail}")


def _series_pair(g, n, sigma):
    u, v = random_majorization_pair(g, n)
    return (gs.SystemModel(gs.Topology.SERIES, tuple(u), sigma),
            gs.SystemModel(gs.Topology.SERIES, tuple(v), sigma))


def _parallel_pair(g, n, sigma):
    u, v = random_majorization_pair(g, n)
    return (gs.SystemModel(gs.Topology.PARALLEL, tuple(u), sigma),
            gs.SystemModel(gs.Topology.PARALLEL, tuple(v), sigma))


def test_criterion_01_parallel_lr_under_componentwise_dominance():
    trials = 500
    t0 = time.monotonic()
    good = 0
    for k in range(trials):
        g = stream(SEED, "c1", k)
        n = int(g.integers(2, 6))
        sigma = SIGMAS[k % 3]
        mus_b = g.uniform(-3.0, 3.0, n)
        mus_a = mus_b + g.uniform(0.0, 2.0, n)
        a = gs.SystemModel(gs.Topology.PARALLEL, tuple(mus_a), sigma)
        b = gs.SystemModel(gs.Topology.PARALLEL, tuple(mus_b), sigma)
        v = od.check_lr(a, b, direction=FG)
        if v.outcome is Outcome.HOLDS and v.margin >= -1e-9:
            good += 1
    elapsed = time.monotonic() - t0
    ok = good == trials and elapsed < 60.0
    _report(1, ok, f"parallel lr dominance {good}/{trials} in {elapsed:.1f}s")
    assert good == trials
    assert elapsed < 60.0


def test_criterion_02_parallel_rh_under_majorization():
    trials = 500
    good = agree = 0
    for k in range(trials):
        g = stream(SEED, "c2", k)
        a, b = _parallel_pair(g, int(g.integers(2, 6)), SIGMAS[k % 3])
        v = od.check_rh(a, b, direction=FG)
        if v.outcome is Outcome.HOLDS:
            good += 1
        if v.holds == (od.parallel_rh_log_margin(a, b) >= 0.0):
            agree += 1
    ok = good == trials and agree == trials
    _report(2, ok, f"parallel rh {good}/{trials}, closed-form agreement {agree}/{trials}")
    assert good == trials
    assert agree == trials


def test_criterion_03_series_hr_under_majorization():
    trials = 500
    good = 0
    witness = None
    for k in range(trials):
        g = stream(SEED, "c3", k)
        a, b = _series_pair(g, int(g.integers(2, 6)), SIGMAS[k % 3])
        v = od.check_hr(a, b, direction=FS)
        if v.outcome is Outcome.HOLDS:
            good += 1
        elif witness is None:
            witness = (a.mus, b.mus, v.margin)
    ok = good == trials
    detail = f"series hr {good}/{trials}"
    if witness is not None:
        detail += (f"; first counterexample mus={tuple(round(m, 3) for m in witness[0])}"
                   f" vs {tuple(round(m, 3) for m in witness[1])}, margin={witness[2]:.3g}")
    _report(3, ok, detail)
    assert good == trials, (
        "hazard-rate dominance of series systems under location majorization "
        "does not hold; the hazard curves cross (see test_orders.py)"
    )


def test_criterion_04_series_disp_and_lu_under_majorization():
    trials = 200
    t0 = time.monotonic()
    quad = en.QuadratureSpec(rel_tol=1e-10)
    good_disp = good_lu = 0
    for k in range(trials):
        g = stream(SEED, "c4", k)
        a, b = _series_pair(g, int(g.integers(2, 6)), SIGMAS[k % 3])
        if od.check_disp(a, b, direction=FS).outcome is Outcome.HOLDS:
            good_disp += 1
        t_grid = od.make_t_grid(a, b, 64)
        if od.check_lu(a, b, t_grid=t_grid, quad=quad,
                       direction=FS).outcome is Outcome.HOLDS:
            good_lu += 1
    elapsed = time.monotonic() - t0
    ok = good_disp == trials and good_lu == trials and elapsed < 600.0
    _report(4, ok, f"series disp {good_disp}/{trials}, lu {good_lu}/{trials} "
                   f"in {elapsed:.0f}s")
    assert elapsed < 600.0
    assert good_disp == trials and good_lu == trials, (
        "dispersive/less-uncertainty dominance of series systems under "
        "location majorization does not hold (consequence of the hazard "
        "crossing; see test_orders.py)"
    )


def test_criterion_05_phi_convex_decreasing_and_value():
    grid = np.linspace(1e-6, 50.0, 10_000)
    rep = check_lemma_phi(grid)
    val_ok = abs(float(sy.phi(1.0)) - 1.0 / (math.e - 1.0)) < 1e-14
    ok = rep.passed and val_ok
    _report(5, ok, f"phi second diffs >= {rep.min_second_difference:.2e}, "
                   f"first diffs <= {rep.max_first_difference:.2e}, value check {val_ok}")
    assert rep.min_second_difference >= -1e-9
    assert rep.max_first_difference <= 1e-12
    assert val_ok


def test_criterion_06_series_hazard_schur_convex_probe():
    # the gradient criterion for Schur-convexity of the series hazard in the
    # locations holds where every inner exponential argument stays right of
    # the turning point of t -> t*phi'(t) (about 1.9); with locations in
    # [-3, 3] that means evaluation points at or below roughly -4.2
    xs = (-4.5, -5.5, -7.0, -9.0, -12.0)
    g = stream(SEED, "c6")
    good = 0
    total = 0
    for _ in range(100):
        z = g.uniform(-3.0, 3.0, 4)
        for x in xs:
            f = lambda mus: float(sy.system_hazard(
                gs.SystemModel(gs.Topology.SERIES, tuple(mus), 1.0), x))
            total += 1
            if schur_test(f, z, Curvature.CONVEX):
                good += 1
    ok = good == total
    _report(6, ok, f"schur gradient probe {good}/{total} over 5 x-values x 100 points")
    assert good == total


def test_criterion_07_shannon_entropy_closed_form():
    worst = 0.0
    for sigma in SIGMAS:
        for mu in (0.0, 4.0, -7.5):
            s = gs.SystemModel(gs.Topology.PARALLEL, (mu,), sigma)
            e = en.shannon_entropy(s)
            assert e.converged
            worst = max(worst, abs(e.value - (math.log(sigma) + 1.0 + EULER_GAMMA)))
    ok = worst < 1e-8
    _report(7, ok, f"single-component entropy worst error {worst:.2e}")
    assert worst < 1e-8


def test_criterion_08_dual_form_residual_entropy():
    worst = 0.0
    for k in range(20):
        g = stream(SEED, "c8", k)
        n = int(g.integers(2, 6))
        sigma = SIGMAS[k % 3]
        topo = gs.Topology.SERIES if k % 2 else gs.Topology.PARALLEL
        s = gs.SystemModel(topo, tuple(g.uniform(-3.0, 3.0, n)), sigma)
        ts = np.linspace(sy.system_quantiles(s, 0.001),
                         sy.system_quantiles(s, 0.999), 64)
        for t in ts:
            a, b = residual_forms(s, float(t))
            assert a.converged and b.converged
            worst = max(worst, abs(a.value - b.value))
    ok = worst < 1e-9
    _report(8, ok, f"dual-form agreement worst gap {worst:.2e} over 20 systems x 64 t")
    assert worst < 1e-9


def test_criterion_09_implication_audit_free_scan():
    trials = 1000
    violations = 0
    for k in range(trials):
        g = stream(SEED, "c9", k)
        topo = gs.Topology.SERIES if g.integers(0, 2) else gs.Topology.PARALLEL
        n = int(g.integers(2, 5))
        sigma = SIGMAS[k % 3]
        a = gs.SystemModel(topo, tuple(g.uniform(-3.0, 3.0, n)), sigma)
        b = gs.SystemModel(topo, tuple(g.uniform(-3.0, 3.0, n)), sigma)
        rep = od.implication_audit(a, b)
        violations += len(rep.violations)
    ok = violations == 0
    _report(9, ok, f"{violations} implication violations over {trials} audits")
    assert violations == 0


def test_criterion_10_monte_carlo_agreement_and_quantile_roundtrip():
    contradictions = 0
    worst_roundtrip = 0.0
    us = od.make_p_grid(513)
    for k in range(20):
        g = stream(SEED, "c10", k)
        n = int(g.integers(2, 6))
        sigma = SIGMAS[k % 3]
        if k % 2:
            a, b = _series_pair(g, n, sigma)
        else:
            mus_b = g.uniform(-3.0, 3.0, n)
            mus_a = mus_b + g.uniform(0.0, 2.0, n)
            a = gs.SystemModel(gs.Topology.PARALLEL, tuple(mus_a), sigma)
            b = gs.SystemModel(gs.Topology.PARALLEL, tuple(mus_b), sigma)
        grid = sy.make_grid(a, b, 129)
        scan = empirical_cdf_dominance(a, b, *sample_pair(a, b, SEED + k, 10**6), grid)
        contradictions += len(scan.contradictions)
        for s in (a, b):
            qs = sy.system_quantiles(s, us)
            worst_roundtrip = max(
                worst_roundtrip,
                float(np.abs(sy.system_cdf(s, qs) - us).max()))
    ok = contradictions == 0 and worst_roundtrip < 1e-11
    _report(10, ok, f"{contradictions} MC contradictions; "
                    f"worst quantile roundtrip {worst_roundtrip:.2e}")
    assert contradictions == 0
    assert worst_roundtrip < 1e-11
