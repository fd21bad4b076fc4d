"""Witness oracle: every lr, hr, rh and st verdict on a seeded pool of pairs,
re-evaluated at 60 digits.

A FAILS witness must violate its inequality by more than the check's
tolerance, and a HOLDS verdict must hold within it at the point of its
smallest margin.  The 60-digit values come from the log-space forms, with
``w_i = exp(-(x - mu_i)/sigma)``:

* series:   ``log Fbar = sum_i log1p(-e^{-w_i})`` and
  ``sigma * hazard = sum_i w_i/expm1(w_i)``;
* parallel: ``W = sum_i w_i``, with ``log F = -W``, ``sigma * rh = W`` and
  ``sigma * hazard = W/expm1(W)``.

The double-precision curves locate the smallest margin; mpmath decides the
sign there.
"""

import mpmath
import numpy as np
import pytest

from gumbelsys import SystemModel, Topology, make_grid
from gumbelsys import orders as od
from gumbelsys import systems as sy
from gumbelsys.majorization import random_majorization_pair
from gumbelsys.rng import stream

DPS = 60
PAIRS = 2  # per (topology, n, sigma) cell
#: relation -> the double-precision curve each side of its check reads
CURVES = {od.Relation.LR: sy.system_log_pdf, od.Relation.HR: sy.system_hazard,
          od.Relation.RH: sy.system_reversed_hazard, od.Relation.ST: sy.system_cdf}


def _exact(s: SystemModel, x: float) -> dict:
    """log pdf, hazard, reversed hazard and cdf of ``s`` at ``x`` to DPS digits."""
    sigma = mpmath.mpf(s.sigma)
    w = [mpmath.exp(-(mpmath.mpf(x) - mpmath.mpf(m)) / sigma) for m in s.mus]
    if s.topology is Topology.PARALLEL:
        big_w = mpmath.fsum(w)
        hazard = big_w / mpmath.expm1(big_w) / sigma
        log_pdf = -mpmath.log(sigma) + mpmath.log(big_w) - big_w
        return {od.Relation.LR: log_pdf, od.Relation.HR: hazard,
                od.Relation.RH: big_w / sigma, od.Relation.ST: mpmath.exp(-big_w)}
    # log1p(-e^{-w}), as log(-expm1(-w)) up to w = ln 2, where e^{-w} is near 1
    log_sf = mpmath.fsum(mpmath.log1p(-mpmath.exp(-wi)) if wi > mpmath.ln2
                         else mpmath.log(-mpmath.expm1(-wi)) for wi in w)
    hazard = mpmath.fsum(wi / mpmath.expm1(wi) for wi in w) / sigma
    cdf = -mpmath.expm1(log_sf)
    return {od.Relation.LR: mpmath.log(hazard) + log_sf, od.Relation.HR: hazard,
            od.Relation.RH: hazard * mpmath.exp(log_sf) / cdf, od.Relation.ST: cdf}


def _sides(rel, lo, hi, x):
    """The exact lhs and rhs of ``rel`` at ``x`` for the FIRST_SMALLER pair
    ``(lo, hi)``, and the check's slack there; lr takes ``x`` as the pair
    ``(previous finite point, point)`` of one step."""
    if rel is od.Relation.LR:
        prev, here = (_exact(hi, t)[rel] - _exact(lo, t)[rel] for t in x)
        return here, prev, mpmath.mpf(od._LR_STEP_SLACK)
    ea, eb = _exact(lo, x)[rel], _exact(hi, x)[rel]
    if rel is od.Relation.ST:
        return ea, eb, mpmath.mpf(od._ST_SLACK)
    lhs, rhs = (ea, eb) if rel is od.Relation.HR else (eb, ea)
    return lhs, rhs, od._RATE_SLACK * max(1, abs(ea), abs(eb))


def _smallest_margin_point(rel, lo, hi, grid):
    """The point (for lr, the step) where the double-precision lhs - rhs of
    ``rel`` on ``grid`` is least, and that least value."""
    ca, cb = CURVES[rel](lo, grid), CURVES[rel](hi, grid)
    if rel is od.Relation.LR:
        with np.errstate(invalid="ignore"):
            d = cb - ca
        xk, dk = grid[np.isfinite(d)], d[np.isfinite(d)]
        steps = dk[1:] - dk[:-1]
        k = int(np.argmin(steps))
        return (float(xk[k]), float(xk[k + 1])), float(steps[k])
    diff = ca - cb if rel in (od.Relation.HR, od.Relation.ST) else cb - ca
    k = int(np.argmin(diff))  # a HOLDS verdict has every point finite
    return float(grid[k]), float(diff[k])


def _previous_finite(lo, hi, grid, x):
    """For lr: the finite grid point before ``x`` of the log-density difference."""
    with np.errstate(invalid="ignore"):
        d = sy.system_log_pdf(hi, grid) - sy.system_log_pdf(lo, grid)
    xk = grid[np.isfinite(d)]
    return float(xk[int(np.searchsorted(xk, x)) - 1]), x


@pytest.mark.parametrize("n", [2, 4, 16])
@pytest.mark.parametrize("topology", list(Topology), ids=lambda t: t.value)
def test_witnesses_and_margins_at_60_digits(topology, n):
    decided = 0
    with mpmath.workdps(DPS):
        for sigma in (0.5, 1.0, 2.0):
            for k in range(PAIRS):
                g = stream(7, "oracle", topology.value, n, sigma, k)
                a, b = (SystemModel(topology, tuple(m), sigma)
                        for m in random_majorization_pair(g, n))
                grid = make_grid(a, b)
                for direction in od.Direction:
                    lo, hi = (b, a) if direction is od.Direction.FIRST_GREATER else (a, b)
                    for rel in CURVES:
                        v = od.check(rel, a, b, direction, grid=grid)
                        if v.outcome is od.Outcome.FAILS:
                            x = v.witness.x
                            if rel is od.Relation.LR:
                                x = _previous_finite(lo, hi, grid, x)
                            lhs, rhs, tol = _sides(rel, lo, hi, x)
                            assert lhs - rhs < -tol, (rel, direction, a, b, v)
                        elif v.outcome is od.Outcome.HOLDS:
                            x, margin = _smallest_margin_point(rel, lo, hi, grid)
                            assert margin == v.margin
                            lhs, rhs, tol = _sides(rel, lo, hi, x)
                            assert lhs - rhs >= -tol, (rel, direction, a, b, v, x)
                        else:
                            continue
                        decided += 1
    assert decided >= 3 * PAIRS * 2 * 4 * 3 // 4  # most verdicts are decided
