"""Closed-form primitives for a single Gumbel(mu, sigma) random variable.

The distribution function is ``F(x) = exp(-exp(-(x - mu)/sigma))`` with
location ``mu`` and scale ``sigma > 0``.  All tail-sensitive quantities are
evaluated in log space: with ``z = (x - mu)/sigma`` and ``w = exp(-z)``,

* ``log F(x) = -w``
* ``log f(x) = -log(sigma) - z - w``
* ``1 - F(x) = -expm1(-w)``          (no cancellation near F = 1)
* reversed hazard ``f/F = w/sigma``  (exact algebraic simplification)

so nothing underflows before it has to.  Sampling is inverse-transform, one
uniform per draw, which keeps every draw a deterministic function of the
generator state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .rng import open_uniform

__all__ = [
    "GumbelParams",
    "cdf",
    "log_cdf",
    "pdf",
    "log_pdf",
    "survival",
    "log_survival",
    "hazard",
    "reversed_hazard",
    "quantile",
    "sample",
]


@dataclass(frozen=True)
class GumbelParams:
    """Location/scale pair of one component, validated on construction."""

    mu: float
    sigma: float

    def __post_init__(self) -> None:
        mu = float(self.mu)
        sigma = float(self.sigma)
        if not np.isfinite(mu):
            raise DomainError(f"mu must be finite, got {self.mu!r}")
        if not (np.isfinite(sigma) and sigma > 0.0):
            raise DomainError(f"sigma must be finite and > 0, got {self.sigma!r}")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)


def _checked_x(x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"abscissa must be finite, got {x!r}")
    return arr


def _w(p: GumbelParams, x) -> np.ndarray:
    """exp(-(x - mu)/sigma), the inner exponential."""
    z = (_checked_x(x) - p.mu) / p.sigma
    with np.errstate(over="ignore", under="ignore"):
        return np.exp(-z)


def log_cdf(p: GumbelParams, x) -> np.ndarray:
    """log F(x) = -exp(-(x - mu)/sigma)."""
    return -_w(p, x)


def cdf(p: GumbelParams, x) -> np.ndarray:
    """Distribution function F(x) in [0, 1]."""
    with np.errstate(under="ignore"):
        return np.exp(log_cdf(p, x))


# The log-space formulas below take w >= 0 together with ``e = exp(-w)`` and
# ``m = -expm1(-w) = 1 - exp(-w)``, so that a caller needing several of them
# computes the two exponentials once.  Callers run them under
# ``np.errstate(all="ignore")``: the branches not taken may overflow or divide
# by zero, and ``np.where`` discards them.

def _exps(w) -> tuple[np.ndarray, np.ndarray]:
    """``exp(-w)`` and ``-expm1(-w)``, the two exponentials of the formulas."""
    neg = -w
    return np.exp(neg), -np.expm1(neg)


def _log1mexp_of(w, e, m) -> np.ndarray:
    """log(1 - exp(-w)): ``log(m)`` up to w = ln 2, ``log1p(-e)`` beyond it
    (the two-branch form of Maechler, 2012)."""
    return np.where(w <= 0.6931471805599453, np.log(m), np.log1p(-e))


def _phi_of(w, e, m) -> np.ndarray:
    """phi(w) = w/(e^w - 1) as ``w*e/m``; the series ``1 - w/2 + w^2/12``
    below w = 1e-5, where both factors vanish, and 0 at w = inf."""
    out = w * e / m
    small = w < 1e-5
    if small.any():
        out = np.where(small, 1.0 - w / 2.0 + w * w / 12.0, out)
    return np.where(np.isposinf(w), 0.0, out)


def _log1mexp(w) -> np.ndarray:
    """log(1 - exp(-w)) for w > 0, stable across the whole range."""
    w = np.asarray(w, dtype=float)
    with np.errstate(all="ignore"):
        return _log1mexp_of(w, *_exps(w))


#: log of the smallest normal double; below it ``exp(log w)`` is subnormal
#: or 0 and carries too few bits for ``log(1 - exp(-w))``
_LOG_TINY = float(np.log(np.finfo(float).tiny))


def _fill_underflow(out, logw) -> np.ndarray:
    """Patch ``out = log(1 - exp(-exp(log w)))`` where ``exp(log w)`` is below
    the normal range.

    There ``out`` is ``-inf``, or the log of a subnormal that has lost
    precision, while ``log(1 - exp(-w)) = log w`` to double precision, so
    ``log w`` is put in its place; every other entry is left as it is.
    """
    if out.size and logw.min() < _LOG_TINY:
        out = np.where(logw < _LOG_TINY, logw, out)
    return out


def survival(p: GumbelParams, x) -> np.ndarray:
    """1 - F(x), computed as -expm1(-w) so precision near 1 is preserved."""
    with np.errstate(under="ignore"):
        return -np.expm1(-_w(p, x))


def log_survival(p: GumbelParams, x) -> np.ndarray:
    """log(1 - F(x)) without forming the complement explicitly; ``-z`` in the
    far right tail, where ``w = exp(-z)`` is below the normal range."""
    z = (_checked_x(x) - p.mu) / p.sigma
    with np.errstate(over="ignore", under="ignore"):
        return _fill_underflow(_log1mexp(np.exp(-z)), -z)


def log_pdf(p: GumbelParams, x) -> np.ndarray:
    """log f(x) = -log(sigma) - z - exp(-z)."""
    z = (_checked_x(x) - p.mu) / p.sigma
    with np.errstate(over="ignore", under="ignore"):
        return -np.log(p.sigma) - z - np.exp(-z)


def pdf(p: GumbelParams, x) -> np.ndarray:
    """Density f(x) = (1/sigma) exp(-z) F(x)."""
    with np.errstate(under="ignore"):
        return np.exp(log_pdf(p, x))


def hazard(p: GumbelParams, x) -> np.ndarray:
    """f(x) / (1 - F(x)) = phi(w)/sigma with phi(w) = w exp(-w) / (1 - exp(-w));
    0 in the far left tail, where w overflows, and 1/sigma in the far right."""
    w = _w(p, x)
    with np.errstate(all="ignore"):
        return _phi_of(w, *_exps(w)) / p.sigma


def reversed_hazard(p: GumbelParams, x) -> np.ndarray:
    """f(x) / F(x), which simplifies exactly to (1/sigma) exp(-(x - mu)/sigma);
    inf far left, where that overflows."""
    w = _w(p, x)
    with np.errstate(over="ignore"):
        return w / p.sigma


def quantile(p: GumbelParams, prob) -> np.ndarray:
    """Inverse of the distribution function: Q(u) = mu - sigma*log(-log(u))."""
    u = np.asarray(prob, dtype=float)
    if not np.all(np.isfinite(u)) or np.any(u <= 0.0) or np.any(u >= 1.0):
        raise DomainError(f"prob must lie strictly inside (0, 1), got {prob!r}")
    return p.mu - p.sigma * np.log(-np.log(u))


def sample(p: GumbelParams, rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw ``n`` variates by inverse transform; reproducible given the generator."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    u = open_uniform(rng, n)
    return p.mu - p.sigma * np.log(-np.log(u))
