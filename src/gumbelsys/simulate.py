"""Monte Carlo oracle: empirical counterparts of the analytic quantities.

Every draw is deterministic given (seed, n): it comes from a labeled
substream (one per component, one per system, one for the bootstrap), so
adding a stream never perturbs an existing one.  :func:`sample_pair` draws and
sorts both systems' samples once; the estimators read them and keep nothing.
The 4-standard-error contradiction threshold keeps the false-alarm probability
per grid point around 6e-5, quiet enough that a dense grid stays silent under
the null.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, _check_count, _check_real
from .rng import open_uniform, stream
from .systems import SystemModel, Topology, _vector, system_cdf

__all__ = [
    "McEstimate",
    "DominanceScan",
    "sample_system",
    "sample_pair",
    "empirical_cdf_dominance",
    "empirical_quantile_spread",
]

CONTRADICTION_SES = 4.0


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo estimate with its standard-error band."""

    value: float
    std_error: float
    n_samples: int

    def __post_init__(self) -> None:
        if self.std_error < 0.0:
            raise DomainError("std_error must be nonnegative")
        if self.n_samples < 1:
            raise DomainError("n_samples must be >= 1")


@dataclass(frozen=True)
class DominanceScan:
    """Pointwise empirical cdf difference F_a - F_b with contradiction flags."""

    estimates: tuple[McEstimate, ...]
    analytic: tuple[float, ...]
    contradictions: tuple[int, ...]  # grid indices disagreeing beyond the threshold
    threshold_ses: float


def sample_system(s: SystemModel, seed: int, n: int, *,
                  label: str = "system") -> np.ndarray:
    """Draw ``n`` system lifetimes: each component from its own labeled
    substream by inverse transform, ``mu - sigma * log(-log(u))``, then min
    (series) or max (parallel)."""
    _check_count(n, 1, name="n")
    fold = np.maximum if s.topology is Topology.PARALLEL else np.minimum
    out = None
    for i, mu in enumerate(s.mus):
        x = open_uniform(stream(seed, label, "component", i), n)
        np.log(x, out=x)
        np.negative(x, out=x)
        np.log(x, out=x)
        x *= s.sigma
        np.subtract(mu, x, out=x)
        out = x if out is None else fold(out, x, out=out)
    return out


def sample_pair(a: SystemModel, b: SystemModel, seed: int, n: int) -> tuple:
    """The sorted samples ``(xa, xb)`` the estimators read: ``n`` lifetimes
    of each system, drawn on the labels ``system_a`` and ``system_b``."""
    xa = sample_system(a, seed, n, label="system_a")
    xb = sample_system(b, seed, n, label="system_b")
    xa.sort()
    xb.sort()
    return xa, xb


def _sample_size(xa: np.ndarray, xb: np.ndarray) -> int:
    """The common size of two samples, each 1-D, nonempty and ascending (a
    NaN is not), else :class:`DomainError`."""
    if xa.ndim != 1 or xa.shape != xb.shape or xa.size == 0:
        raise DomainError(f"need two 1-D samples of one nonzero size, "
                          f"got shapes {xa.shape} and {xb.shape}")
    for name, x in (("xa", xa), ("xb", xb)):
        if not (x[0] <= x[-1] and np.all(x[:-1] <= x[1:])):
            raise DomainError(f"sample {name} must be ascending, with no NaN")
    return xa.size


def empirical_cdf_dominance(a: SystemModel, b: SystemModel, xa: np.ndarray,
                            xb: np.ndarray, grid) -> DominanceScan:
    """Estimate F_a(x) - F_b(x) on the grid from sorted samples of a and b and
    flag every point whose empirical sign contradicts the analytic one beyond 4 SEs."""
    n = _sample_size(xa, xb)
    xs = _vector(grid, "grid")
    pa = np.searchsorted(xa, xs, side="right") / n
    pb = np.searchsorted(xb, xs, side="right") / n
    d_emp = pa - pb
    se = np.sqrt(pa * (1.0 - pa) / n + pb * (1.0 - pb) / n)
    d_ana = np.asarray(system_cdf(a, xs) - system_cdf(b, xs), dtype=float)

    flagged = ((d_ana >= 0.0) & (d_emp < -CONTRADICTION_SES * se)
               | (d_ana <= 0.0) & (d_emp > CONTRADICTION_SES * se))
    return DominanceScan(
        estimates=tuple(McEstimate(float(v), float(e), n) for v, e in zip(d_emp, se)),
        analytic=tuple(float(v) for v in d_ana),
        contradictions=tuple(int(k) for k in np.flatnonzero(flagged)),
        threshold_ses=CONTRADICTION_SES)


def _spread_ranks(n: int, alpha: float, beta: float):
    """The four 0-based ranks that numpy's ``linear`` quantiles of ``n``
    points read for Q(alpha) and Q(beta), and their two lerp weights."""
    ranks, weights = [], []
    for p in (alpha, beta):
        v = (n - 1) * p
        k = math.floor(v)
        ranks += [k, min(k + 1, n - 1)]
        weights.append(v - k)
    return ranks, weights


def _lerp(lo, hi, t: float):
    """numpy's ``linear`` quantile arithmetic between the order statistics
    ``lo <= hi``: ``lo + d*t``, or ``hi - d*(1 - t)`` where ``t >= 0.5``."""
    d = hi - lo
    return hi - d * (1.0 - t) if t >= 0.5 else lo + d * t


def _spread(o, weights):
    """Q(beta) - Q(alpha) from the order statistics ``o`` at
    :func:`_spread_ranks`, one row per rank."""
    return _lerp(o[2], o[3], weights[1]) - _lerp(o[0], o[1], weights[0])


def _bootstrap_order_stats(x: np.ndarray, ranks, g: np.random.Generator,
                           n_boot: int) -> np.ndarray:
    """The order statistics at ``ranks`` (rows) of ``n_boot`` bootstrap
    resamples (columns) of the sorted sample ``x``, without resampling it.

    The k-th smallest of n iid uniforms is S_k / S_{n+1}, S_j a sum of j
    standard exponentials (Renyi's representation), so cumulative gamma
    spacings between the distinct ranks give the resample's uniforms at
    those ranks; ``floor(n*U)`` is monotone in U, so as an index into ``x``
    it picks the resample's order statistic.
    """
    n = x.size
    distinct, row = np.unique(ranks, return_inverse=True)
    shapes = np.diff(distinct, prepend=-1, append=n)
    s = np.cumsum(g.standard_gamma(shapes[:, None], (shapes.size, n_boot)), axis=0)
    idx = np.minimum((n * (s[:-1] / s[-1])).astype(np.intp), n - 1)
    return x[idx[row]]


def empirical_quantile_spread(xa: np.ndarray, xb: np.ndarray, seed: int,
                              alpha: float, beta: float,
                              n_boot: int = 200) -> McEstimate:
    """Order-statistic estimate of [Q_b(beta)-Q_b(alpha)] - [Q_a(beta)-Q_a(alpha)]
    from sorted samples of a and b, with a bootstrap standard error on ``seed``'s stream."""
    _check_real(alpha, 0, 1, "alpha")
    _check_real(beta, alpha, 1, "beta")
    _check_count(n_boot, 2, name="n_boot")  # a standard error needs two replicates
    n = _sample_size(xa, xb)
    ranks, weights = _spread_ranks(n, alpha, beta)
    value = _spread(xb[ranks], weights) - _spread(xa[ranks], weights)

    g = stream(seed, "bootstrap")
    oa = _bootstrap_order_stats(xa, ranks, g, n_boot)
    ob = _bootstrap_order_stats(xb, ranks, g, n_boot)
    reps = _spread(ob, weights) - _spread(oa, weights)
    return McEstimate(float(value), float(reps.std(ddof=1)), n)
