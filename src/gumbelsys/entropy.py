"""Shannon and residual-lifetime entropy of system laws by panel quadrature.

The residual entropy at conditioning time ``t`` is computed through two
algebraically equivalent integral forms,

* hazard form:   ``1 - (1/Fbar(t)) * int_t f(x) log r(x) dx``
* density form:  ``log Fbar(t) - (1/Fbar(t)) * int_t f(x) log f(x) dx``

and their agreement is the built-in cross-check on every value.  The log of
the hazard is taken as ``log f - log Fbar``, since the hazard spans decades.

Each integral runs from ``t`` to the cut ``hi(t)`` where the remaining
conditional mass drops to ``tail_mass_cutoff``, which bounds the truncation
mismatch between the two forms by roughly ``cutoff * (1 - log(cutoff))``.
All times of one call share one pass: the breakpoints ``ts`` and ``hi(ts)``
are split into panels at most half the law's scale wide, each integrated by
the 20-point Gauss-Legendre rule with the 10-point rule as error estimate
(as in QUADPACK, Piessens et al. 1983), and ``int_t^hi(t)`` is a difference
of suffix sums over the panels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import DomainError
from .systems import SystemModel, as_law

__all__ = [
    "QuadratureSpec",
    "EntropyValue",
    "shannon_entropy",
    "residual_entropy",
    "residual_entropy_forms",
    "entropy_curve",
]

# the 20-point Gauss-Legendre rule, then the 10-point rule for its error
(_X20, _W20), (_X10, _W10) = leggauss(20), leggauss(10)
_NODES = np.concatenate([_X20, _X10])


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and budget for the panel integrator.

    A panel passes when its 20- and 10-point rules differ by at most
    ``max(abs_tol, rel_tol * int |integrand|)`` in both forms.  Failing
    panels are bisected, at most ``max_subdivisions`` times per call; a value
    whose window holds a panel that still fails is not converged.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-13
    tail_mass_cutoff: float = 1e-12
    max_subdivisions: int = 2000

    def __post_init__(self) -> None:
        if not (0.0 < self.rel_tol < 1e-4):
            raise DomainError(f"rel_tol must lie in (0, 1e-4), got {self.rel_tol}")
        if self.abs_tol <= 0.0 or self.tail_mass_cutoff <= 0.0:
            raise DomainError("abs_tol and tail_mass_cutoff must be positive")
        if self.max_subdivisions < 1:
            raise DomainError("max_subdivisions must be >= 1")


@dataclass(frozen=True)
class EntropyValue:
    """An entropy in nats with its error estimate and convergence flag."""

    value: float
    error_estimate: float
    converged: bool

    def __post_init__(self) -> None:
        if not (np.isnan(self.error_estimate) or self.error_estimate >= 0.0):
            raise DomainError("error_estimate must be nonnegative")


def _scale(law) -> float:
    """sigma for systems, else the interquartile range over 1.5725 (sigma for a Gumbel)."""
    if isinstance(law.source, SystemModel):
        return law.source.sigma
    q1, q3 = np.asarray(law.quantiles(np.array([0.25, 0.75])), dtype=float)
    return float(q3 - q1) / 1.5725


def _panels(law, a: np.ndarray, b: np.ndarray, q: QuadratureSpec):
    """Hazard- and density-form integrals of each panel [a, b] by the 20-point
    rule, their error estimates and pass flags, each shaped (2, panels)."""
    half = 0.5 * (b - a)
    x = (0.5 * (a + b))[:, None] + half[:, None] * _NODES
    lp = np.asarray(law.log_pdf(x.ravel()), dtype=float).reshape(x.shape)
    ls = np.asarray(law.log_survival(x.ravel()), dtype=float).reshape(x.shape)
    with np.errstate(under="ignore", invalid="ignore"):
        f = np.exp(lp)
        live = f > 0.0
        g = np.stack([np.where(live, f * (lp - ls), 0.0), np.where(live, f * lp, 0.0)])
    value = (g[..., :20] @ _W20) * half
    mass = (np.abs(g[..., :20]) @ _W20) * half
    err = np.abs(value - (g[..., 20:] @ _W10) * half)
    return value, err, err <= np.maximum(q.abs_tol, q.rel_tol * mass)


def _integrate(law, edges: np.ndarray, q: QuadratureSpec):
    """Both forms integrated over each gap between consecutive ``edges``:
    values and error estimates shaped (2, gaps), and per-form flags of the
    gaps that hold a panel failing its error test."""
    gaps = np.diff(edges)
    counts = np.maximum(1, np.ceil(gaps / (0.5 * _scale(law)))).astype(int)
    owner = np.repeat(np.arange(gaps.size), counts)
    step = np.arange(owner.size) - np.repeat(np.cumsum(counts) - counts, counts)
    cuts = np.append(edges[owner] + gaps[owner] * (step / counts[owner]), edges[-1:])
    a, b = cuts[:-1], cuts[1:]

    value, error = np.zeros((2, 2, gaps.size))
    failed = np.zeros((2, gaps.size), dtype=bool)
    budget = q.max_subdivisions
    while a.size:
        v, e, ok = _panels(law, a, b, q)
        split = np.flatnonzero(~ok.all(axis=0))[:budget]
        budget -= split.size
        keep = ~np.isin(np.arange(a.size), split)
        at = (slice(None), owner[keep])
        np.add.at(value, at, v[:, keep])
        np.add.at(error, at, e[:, keep])
        np.logical_or.at(failed, at, ~ok[:, keep])
        mid = 0.5 * (a[split] + b[split])
        a, b = np.concatenate([a[split], mid]), np.concatenate([mid, b[split]])
        owner = np.tile(owner[split], 2)
    return value, error, failed


def _upper_cuts(law, ts: np.ndarray, log_target: np.ndarray, scale: float) -> np.ndarray:
    """Points right of each t where the log survival falls to ``log_target``.

    Log survival is concave and decreasing, so Newton steps from right of the
    root stay right of it.  The step doubles until such a point is found;
    then Newton steps are kept in the bracket, with bisection as fallback.
    """
    lo, hi = ts.copy(), np.full(ts.shape, np.inf)
    x, width = ts + scale, np.full(ts.shape, scale)
    for _ in range(400):
        ls = np.asarray(law.log_survival(x), dtype=float)
        g = ls - log_target
        lo, hi = np.where(g > 0.0, x, lo), np.where(g > 0.0, hi, x)
        with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
            newton = x + g / np.exp(np.asarray(law.log_pdf(x), dtype=float) - ls)
        width = np.where(np.isinf(hi), 2.0 * width, width)
        fallback = np.where(np.isinf(hi), lo + width, 0.5 * (lo + hi))
        nxt = np.where((lo <= newton) & (newton <= hi) & np.isfinite(hi), newton, fallback)
        if np.all(np.abs(nxt - x) <= 1e-12 * (scale + np.abs(x))):
            return nxt
        x = nxt
    raise DomainError("could not locate the upper integration cut")


def _survival(law, ts: np.ndarray) -> np.ndarray:
    """Survival at each finite t, 0 at the others."""
    sf = np.zeros(ts.shape)
    finite = np.isfinite(ts)
    sf[finite] = law.survival(ts[finite])
    return sf


def _times(law, t, q: QuadratureSpec) -> tuple[np.ndarray, np.ndarray]:
    """1-D times and their survival; DomainError at the first without a value."""
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    sf = _survival(law, ts)
    for tk, sk in zip(ts, sf):
        if not np.isfinite(tk):
            raise DomainError(f"conditioning time must be finite, got {float(tk)!r}")
        if sk <= q.tail_mass_cutoff:
            raise DomainError(
                f"survival at t={float(tk)} is {sk:.3e}, at or below the tail mass "
                f"cutoff {q.tail_mass_cutoff:.1e}; move t left or relax the cutoff")
    return ts, sf


def _residual_forms(law, ts: np.ndarray, sf_t: np.ndarray, q: QuadratureSpec):
    """Hazard-form and density-form values, errors and convergence flags at
    every t, each shaped (2, len(ts))."""
    log_sf_t = np.asarray(law.log_survival(ts), dtype=float)
    his = _upper_cuts(law, ts, np.log(q.tail_mass_cutoff) + log_sf_t, _scale(law))
    edges, where = np.unique(np.concatenate([ts, his]), return_inverse=True)
    value, error, failed = _integrate(law, edges, q)

    def window(v):  # int_t^hi(t) as a difference of suffix sums over the gaps
        suffix = np.cumsum(np.pad(v, [(0, 0), (0, 1)])[:, ::-1], axis=1)[:, ::-1]
        return suffix[:, where[:ts.size]] - suffix[:, where[ts.size:]]

    ints = window(value)
    values = np.stack([1.0 - ints[0] / sf_t, log_sf_t - ints[1] / sf_t])
    return values, window(error) / sf_t, window(failed.astype(int)) == 0


def residual_entropy_forms(s, t, q: QuadratureSpec = QuadratureSpec()):
    """Both integral forms of the residual entropy at ``t`` (hazard form
    first); a 1-D ``t`` gives a list with one pair per time."""
    law = as_law(s)
    values, errs, ok = _residual_forms(law, *_times(law, t, q), q)
    pairs = [tuple(EntropyValue(float(v), float(e), bool(c)) for v, e, c in zip(*col))
             for col in zip(values.T, errs.T, ok.T)]
    return pairs[0] if np.ndim(t) == 0 else pairs


def _agreed(values, errs, ok, q: QuadratureSpec) -> list[EntropyValue]:
    """Hazard-form values, converged where both forms converged and agree
    within ``10 * rel_tol * max(1, |value|)``; the gap joins the error."""
    gap = np.abs(values[0] - values[1])
    agree = gap <= 10.0 * q.rel_tol * np.maximum(1.0, np.abs(values[0]))
    return [EntropyValue(float(v), float(e), bool(c))
            for v, e, c in zip(values[0], errs[0] + gap, ok[0] & ok[1] & agree)]


def residual_entropy(s, t, q: QuadratureSpec = QuadratureSpec()):
    """Entropy of the remaining lifetime given survival past ``t``.

    Returns the hazard-form value; the two forms must agree within
    ``10 * rel_tol * max(1, |value|)`` for the result to count as converged,
    and their discrepancy is folded into the error estimate.  A scalar ``t``
    gives one :class:`EntropyValue`, a 1-D ``t`` a list of them.
    """
    law = as_law(s)
    out = _agreed(*_residual_forms(law, *_times(law, t, q), q), q)
    return out[0] if np.ndim(t) == 0 else out


def entropy_curve(s, t_grid, q: QuadratureSpec = QuadratureSpec()) -> list[EntropyValue]:
    """Residual entropy at each grid time; times without a value (not finite,
    or past the cutoff) become non-converged NaN entries instead of aborting
    the remaining points."""
    law = as_law(s)
    ts = np.atleast_1d(np.asarray(t_grid, dtype=float))
    sf = _survival(law, ts)
    good = sf > q.tail_mass_cutoff
    values = iter(_agreed(*_residual_forms(law, ts[good], sf[good], q), q))
    return [next(values) if g else EntropyValue(float("nan"), float("inf"), False)
            for g in good]


def shannon_entropy(s, q: QuadratureSpec = QuadratureSpec()) -> EntropyValue:
    """Differential entropy -int f log f over the tail-trimmed support window
    from ``Q(cutoff)`` to ``Q(1 - cutoff)``."""
    law = as_law(s)
    cut = q.tail_mass_cutoff
    edges = np.asarray(law.quantiles(np.array([cut, 1.0 - cut])), dtype=float)
    value, error, failed = _integrate(law, edges, q)
    return EntropyValue(-float(value[1, 0]), float(error[1, 0]), not failed[1, 0])
