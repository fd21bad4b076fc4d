"""Witness oracle: every lr, hr, rh, st and disp verdict on a seeded pool of
pairs, re-evaluated at 60 digits, and the lu verdicts of a few small pairs.

A FAILS witness must violate its inequality by more than the check's
tolerance, and a HOLDS verdict must hold within it at the point of its
smallest margin.  The 60-digit values come from the log-space forms, with
``w_i = exp(-(x - mu_i)/sigma)``:

* series:   ``log Fbar = sum_i log1p(-e^{-w_i})`` and
  ``sigma * hazard = sum_i w_i/expm1(w_i)``;
* parallel: ``W = sum_i w_i``, with ``log F = -W``, ``sigma * rh = W`` and
  ``sigma * hazard = W/expm1(W)``.

A disp quantile is ``mpmath.findroot`` on ``log F = log p`` started at the
float quantile, and its density ``exp(log hazard + log Fbar)``.  An lu value
is the hazard-form residual entropy ``1 - int_t^cut f log h / Fbar(t)`` by
``mpmath.quad``, up to the system's one cut, the library's closed-form point
where its survival is at most the square of the tail mass cutoff.

The double-precision curves locate the smallest margin; mpmath decides the
sign there.
"""

import math

import mpmath
import numpy as np
import pytest

from gumbelsys import SystemModel, Topology, make_grid
from gumbelsys import entropy as en
from gumbelsys import orders as od
from gumbelsys import systems as sy
from gumbelsys.majorization import random_majorization_pair
from gumbelsys.rng import stream

DPS = 60
PAIRS = 2  # per (topology, n, sigma) cell
#: relation -> the double-precision curve each side of its check reads
CURVES = {od.Relation.LR: sy.system_log_pdf, od.Relation.HR: sy.system_hazard,
          od.Relation.RH: sy.system_reversed_hazard, od.Relation.ST: sy.system_cdf}


def _ws(s: SystemModel, x) -> list:
    """The terms ``w_i`` of ``s`` at ``x`` to the working precision."""
    return [mpmath.exp(-(mpmath.mpf(x) - mpmath.mpf(m)) / s.sigma) for m in s.mus]


def _log_sf_and_hazard(s: SystemModel, x) -> tuple:
    """Log survival and hazard of ``s`` at ``x`` to the working precision."""
    sigma, w = mpmath.mpf(s.sigma), _ws(s, x)
    if s.topology is Topology.PARALLEL:
        big_w = mpmath.fsum(w)
        return mpmath.log(-mpmath.expm1(-big_w)), big_w / mpmath.expm1(big_w) / sigma
    # log1p(-e^{-w}), as log(-expm1(-w)) up to w = ln 2, where e^{-w} is near 1
    log_sf = mpmath.fsum(mpmath.log1p(-mpmath.exp(-wi)) if wi > mpmath.ln2
                         else mpmath.log(-mpmath.expm1(-wi)) for wi in w)
    return log_sf, mpmath.fsum(wi / mpmath.expm1(wi) for wi in w) / sigma


def _exact(s: SystemModel, x: float) -> dict:
    """log pdf, hazard, reversed hazard and cdf of ``s`` at ``x`` to DPS digits."""
    if s.topology is Topology.PARALLEL:
        sigma, big_w = mpmath.mpf(s.sigma), mpmath.fsum(_ws(s, x))
        hazard = big_w / mpmath.expm1(big_w) / sigma
        log_pdf = -mpmath.log(sigma) + mpmath.log(big_w) - big_w
        return {od.Relation.LR: log_pdf, od.Relation.HR: hazard,
                od.Relation.RH: big_w / sigma, od.Relation.ST: mpmath.exp(-big_w)}
    log_sf, hazard = _log_sf_and_hazard(s, x)
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


def _disp_density(s: SystemModel, p: float):
    """The density of ``s`` at its ``p`` quantile, which ``mpmath.findroot``
    solves by Newton from the float quantile: the derivative of ``log F`` is
    the reversed hazard ``hazard * Fbar/F``."""
    def log_cdf_gap(x):
        log_sf, hazard = _log_sf_and_hazard(s, x)
        cdf = -mpmath.expm1(log_sf)
        return mpmath.log(cdf) - mpmath.log(p), hazard * mpmath.exp(log_sf) / cdf

    x = mpmath.findroot(lambda x: log_cdf_gap(x)[0], mpmath.mpf(sy.system_quantiles(s, p)),
                        df=lambda x: log_cdf_gap(x)[1], solver="newton")
    log_sf, hazard = _log_sf_and_hazard(s, x)
    return mpmath.exp(mpmath.log(hazard) + log_sf)


def _disp_point(lo, hi, v: od.OrderVerdict) -> float:
    """The witness p of a disp FAILS, else the p of its smallest margin, where
    the verdict compares the density of ``lo`` at its quantile with that of
    ``hi`` at its own, from the Newton starts ``check_disp`` takes."""
    if v.outcome is od.Outcome.FAILS:
        return v.witness.x
    ps = od.make_p_grid()
    (_, fa), (_, fb) = sy._quantiles_and_pdfs((lo, hi), ps, make_grid(lo, hi))
    k = int(np.argmin(fa - fb))
    assert fa[k] - fb[k] == v.margin
    return float(ps[k])


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
                    v = od.check_disp(a, b, direction=direction)
                    if v.outcome is od.Outcome.INCONCLUSIVE:
                        continue
                    p = _disp_point(lo, hi, v)
                    fa, fb = _disp_density(lo, p), _disp_density(hi, p)
                    tol = od._RATE_SLACK * max(1, fa, fb)
                    assert (fa - fb < -tol) == (v.outcome is od.Outcome.FAILS), (direction, a, b, v)
                    decided += 1
    assert decided >= 3 * PAIRS * 2 * 5 * 3 // 4  # most verdicts are decided


def _residual_entropy(s: SystemModel, t: float, cut: float):
    """The hazard-form residual entropy of ``s`` at ``t``, integrated up to
    ``cut`` in panels of width ``4 sigma``."""
    log_sf_t = _log_sf_and_hazard(s, t)[0]

    def f_log_h(x):
        log_sf, hazard = _log_sf_and_hazard(s, x)
        return mpmath.exp(log_sf - log_sf_t) * hazard * mpmath.log(hazard)

    panels = max(1, math.ceil((cut - t) / (4.0 * s.sigma)))
    edges = mpmath.linspace(mpmath.mpf(t), mpmath.mpf(cut), panels + 1)
    return 1 - mpmath.quad(f_log_h, edges, method="gauss-legendre")


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("topology", list(Topology), ids=lambda t: t.value)
def test_lu_witnesses_and_margins_at_25_digits(topology, n):
    # each verdict compares the entropies of lo and hi at every t of the
    # default grid, within 2 (err_lo + err_hi + rel_tol max(1, |H|)); at the
    # witness t of a FAILS, or the t of least margin of a HOLDS, the exact
    # entropies to the same cuts must decide the same way
    q = en.QuadratureSpec()
    g = stream(7, "oracle-lu", topology.value, n)
    a, b = (SystemModel(topology, tuple(m), 1.0) for m in random_majorization_pair(g, n))
    ts = od.make_t_grid(a, b)
    with mpmath.workdps(25):
        for direction in od.Direction:
            lo, hi = (b, a) if direction is od.Direction.FIRST_GREATER else (a, b)
            v = od.check_lu(a, b, direction=direction)
            (va, ea), (vb, eb) = (np.array([(e.value, e.error_estimate)
                                            for e in en.residual_entropy(s, ts)]).T
                                  for s in (lo, hi))
            tol = 2.0 * (ea + eb + q.rel_tol * np.maximum(1.0, np.maximum(abs(va), abs(vb))))
            diff = vb - va
            if v.outcome is od.Outcome.FAILS:
                k = int(np.argmax(diff < -tol))
                assert ts[k] == v.witness.x
            else:
                assert v.outcome is od.Outcome.HOLDS
                k = int(np.argmin(diff))
                assert diff[k] == v.margin
            t = float(ts[k])
            exact = []
            for s in (lo, hi):
                # each system's one cut, the window the code integrates
                cut = sy._log_survival_bound(s, 2.0 * math.log(q.tail_mass_cutoff))
                exact.append(_residual_entropy(s, t, cut))
            gap = exact[1] - exact[0]
            assert (gap < -tol[k]) == (v.outcome is od.Outcome.FAILS), (direction, a, b, v)
