"""Monte Carlo oracle: empirical counterparts of the analytic quantities.

Every routine is deterministic given (seed, n): draws come from labeled
substreams (one per component, one per system, one for the bootstrap), so
adding a stream never perturbs an existing one.  The 4-standard-error
contradiction threshold keeps the false-alarm probability per grid point
around 6e-5, quiet enough that a dense grid stays silent under the null.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .rng import open_uniform, stream
from .systems import SystemModel, Topology, system_cdf

__all__ = [
    "McEstimate",
    "DominanceScan",
    "sample_system",
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
    seed: int

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
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    draws = np.empty((s.n, n))
    for i, mu in enumerate(s.mus):
        u = open_uniform(stream(seed, label, "component", i), n)
        draws[i] = mu - s.sigma * np.log(-np.log(u))
    if s.topology is Topology.PARALLEL:
        return draws.max(axis=0)
    return draws.min(axis=0)


def empirical_cdf_dominance(a: SystemModel, b: SystemModel, seed: int, n: int,
                            grid) -> DominanceScan:
    """Estimate F_a(x) - F_b(x) on the grid and flag every point whose
    empirical sign contradicts the analytic difference beyond 4 SEs."""
    xs = np.asarray(grid, dtype=float)
    xa = np.sort(sample_system(a, seed, n, label="system_a"))
    xb = np.sort(sample_system(b, seed, n, label="system_b"))
    pa = np.searchsorted(xa, xs, side="right") / n
    pb = np.searchsorted(xb, xs, side="right") / n
    d_emp = pa - pb
    se = np.sqrt(pa * (1.0 - pa) / n + pb * (1.0 - pb) / n)
    d_ana = np.asarray(system_cdf(a, xs) - system_cdf(b, xs), dtype=float)

    flagged = ((d_ana >= 0.0) & (d_emp < -CONTRADICTION_SES * se)
               | (d_ana <= 0.0) & (d_emp > CONTRADICTION_SES * se))
    estimates = tuple(
        McEstimate(float(d_emp[k]), float(se[k]), n, seed) for k in range(xs.size)
    )
    return DominanceScan(
        estimates=estimates,
        analytic=tuple(float(v) for v in d_ana),
        contradictions=tuple(int(k) for k in np.where(flagged)[0]),
        threshold_ses=CONTRADICTION_SES,
    )


def _spread(x: np.ndarray, alpha: float, beta: float) -> float:
    lo, hi = np.quantile(x, [alpha, beta])
    return float(hi - lo)


def empirical_quantile_spread(a: SystemModel, b: SystemModel, seed: int, n: int,
                              alpha: float, beta: float,
                              n_boot: int = 200) -> McEstimate:
    """Order-statistic estimate of [Q_b(beta)-Q_b(alpha)] - [Q_a(beta)-Q_a(alpha)]
    with a bootstrap standard error."""
    if not (0.0 < alpha < beta < 1.0):
        raise DomainError(f"need 0 < alpha < beta < 1, got {alpha}, {beta}")
    if n_boot < 2:
        raise DomainError(f"a standard error needs n_boot >= 2, got {n_boot}")
    xa = sample_system(a, seed, n, label="system_a")
    xb = sample_system(b, seed, n, label="system_b")
    value = _spread(xb, alpha, beta) - _spread(xa, alpha, beta)

    g = stream(seed, "bootstrap")
    reps = np.empty(n_boot)
    for r in range(n_boot):
        ia = g.integers(0, n, n)
        ib = g.integers(0, n, n)
        reps[r] = _spread(xb[ib], alpha, beta) - _spread(xa[ia], alpha, beta)
    return McEstimate(value=value, std_error=float(reps.std(ddof=1)),
                      n_samples=n, seed=seed)
