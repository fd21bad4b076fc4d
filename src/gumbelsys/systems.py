"""Lifetime distribution algebra for series and parallel Gumbel systems.

A system is ``n`` independent components with a common scale ``sigma`` and
per-component locations ``mu_i``.  The parallel system lives while any
component lives (lifetime = max), the series system needs all of them
(lifetime = min).  With ``w_i(x) = exp(-(x - mu_i)/sigma)``:

* parallel cdf        ``F(x)  = exp(-sum_i w_i)``
* parallel density    ``f(x)  = (F(x)/sigma) * sum_i w_i``
* parallel rev.hazard ``(1/sigma) * sum_i w_i``
* series survival     ``Fbar(x) = prod_i (1 - exp(-w_i))``
* series hazard       ``(1/sigma) * sum_i phi(w_i)`` with ``phi(t) = t/(e^t - 1)``

The inner sums are accumulated through log-sum-exp or pairwise reduction so
that tail evaluations degrade gracefully instead of overflowing.  Quantiles
have no closed form for n > 1; they are found inside closed-form component
brackets by safeguarded Newton iteration in log space, with bisection as the
fallback, to |cdf(result) - prob| below 1e-12.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import gumbel
from .errors import DomainError, UsageError
from .gumbel import GumbelParams, _checked_x, _log1mexp

__all__ = [
    "MAX_COMPONENTS",
    "Topology",
    "SystemModel",
    "EvalGrid",
    "phi",
    "parallel_cdf",
    "parallel_pdf",
    "parallel_reversed_hazard",
    "series_survival",
    "series_hazard",
    "system_cdf",
    "system_pdf",
    "system_survival",
    "system_hazard",
    "system_reversed_hazard",
    "system_log_cdf",
    "system_log_pdf",
    "system_log_survival",
    "system_quantile",
    "system_quantiles",
    "make_grid",
    "as_law",
    "LawOps",
    "logsumexp",
]

#: Maximum number of components accepted by :class:`SystemModel`.  The sums
#: over components are pairwise-accumulated; beyond this size the rounding
#: budget of the ordering checks is no longer guaranteed.
MAX_COMPONENTS = 64


class Topology(enum.Enum):
    SERIES = "series"
    PARALLEL = "parallel"


@dataclass(frozen=True)
class SystemModel:
    """Topology plus component locations sharing one scale.

    The locations are stored sorted in descending order (the canonical form
    used by the majorization machinery), which also makes every derived
    quantity exactly invariant under permutations of the input.
    """

    topology: Topology
    mus: tuple[float, ...]
    sigma: float

    def __post_init__(self) -> None:
        if not isinstance(self.topology, Topology):
            raise UsageError(f"topology must be a Topology, got {self.topology!r}")
        mus = tuple(float(m) for m in self.mus)
        if len(mus) < 1:
            raise DomainError("a system needs at least one component")
        if len(mus) > MAX_COMPONENTS:
            raise DomainError(
                f"component count {len(mus)} exceeds MAX_COMPONENTS={MAX_COMPONENTS}"
            )
        if not all(np.isfinite(m) for m in mus):
            raise DomainError(f"all component locations must be finite, got {self.mus!r}")
        sigma = float(self.sigma)
        if not (np.isfinite(sigma) and sigma > 0.0):
            raise DomainError(f"sigma must be finite and > 0, got {self.sigma!r}")
        object.__setattr__(self, "mus", tuple(sorted(mus, reverse=True)))
        object.__setattr__(self, "sigma", sigma)

    @property
    def n(self) -> int:
        return len(self.mus)

    def components(self) -> tuple[GumbelParams, ...]:
        return tuple(GumbelParams(m, self.sigma) for m in self.mus)


@dataclass(frozen=True)
class EvalGrid:
    """Deterministic evaluation abscissae with construction metadata."""

    points: np.ndarray
    lo_prob: float
    hi_prob: float
    count: int

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or pts.size < 33:
            raise UsageError(f"a grid needs at least 33 points, got {pts.size}")
        if not np.all(np.isfinite(pts)) or not np.all(np.diff(pts) > 0):
            raise UsageError("grid points must be finite and strictly increasing")
        pts = pts.copy()
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "count", int(pts.size))


def phi(t) -> np.ndarray:
    """t / (e^t - 1) on t >= 0, continuously extended to phi(0) = 1.

    Evaluated as ``t * exp(-t) / (1 - exp(-t))`` which neither overflows nor
    cancels; below t = 1e-5 the series ``1 - t/2 + t^2/12`` is used instead
    of dividing two vanishing quantities.
    """
    arr = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(arr) | np.isposinf(arr)) or np.any(arr < 0.0):
        raise DomainError(f"phi is defined on t >= 0, got {t!r}")
    with np.errstate(under="ignore", invalid="ignore"):
        tiny = 1.0 - arr / 2.0 + arr * arr / 12.0
        safe = np.where((arr < 1e-5) | np.isposinf(arr), 1.0, arr)
        main = safe * np.exp(-safe) / (-np.expm1(-safe))
    out = np.where(arr < 1e-5, tiny, main)
    return np.where(np.isposinf(arr), 0.0, out)


def logsumexp(a, axis=None):
    """log(sum(exp(a))) along ``axis`` (all of ``a`` when None), for real input.

    Mirrors ``scipy.special.logsumexp`` without weights bit for bit: the
    maximal terms (ties counted in ``m``) are taken out of the shifted sum
    ``s``, and the result is ``log1p(s/m) + log(m) + max``.  Where that is not
    finite (infinite or NaN input) the direct ``log(sum(exp(a)))`` is used.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    axis = tuple(range(a.ndim)) if axis is None else axis
    a_max = np.max(a, axis=axis, keepdims=True)
    top = a == a_max
    m = np.sum(top, axis=axis, keepdims=True, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        s = np.sum(np.exp(np.where(top, -np.inf, a) - a_max), axis=axis, keepdims=True)
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + a_max
        finite = np.isfinite(out)
        if not finite.all():
            out = np.where(finite, out,
                           np.log(np.sum(np.exp(a), axis=axis, keepdims=True)))
    out = np.squeeze(out, axis=axis)
    return out[()] if out.ndim == 0 else out


def _require(s: SystemModel, topology: Topology, op: str) -> None:
    if s.topology is not topology:
        raise UsageError(f"{op} requires a {topology.value} system, got {s.topology.value}")


def _logw(s: SystemModel, x) -> np.ndarray:
    """(mu_i - x)/sigma for every component: log of the inner exponentials."""
    xv = _checked_x(x)
    return (np.asarray(s.mus) - np.asarray(xv)[..., None]) / s.sigma


def _fill_underflow(out, logw) -> np.ndarray:
    """Patch ``out = _log1mexp(exp(log w))`` where ``exp(log w)`` underflowed.

    There ``out`` is ``-inf`` while ``log(1 - exp(-w)) = log w`` to double
    precision, so ``log w`` is put in its place; every finite entry is left
    as it is.  ``logw`` is a callable, evaluated only when an entry needs it,
    so that the common path holds no extra (n_points, n) array.
    """
    if out.size and out.min() == -np.inf:
        out = np.where(out == -np.inf, logw(), out)
    return out


# -- parallel systems -------------------------------------------------------

def _parallel_log_sum(s: SystemModel, x) -> np.ndarray:
    """log(sum_i w_i) via log-sum-exp."""
    return logsumexp(_logw(s, x), axis=-1)


def parallel_cdf(s: SystemModel, x) -> np.ndarray:
    """cdf of the parallel lifetime: exp(-sum_i w_i)."""
    _require(s, Topology.PARALLEL, "parallel_cdf")
    with np.errstate(over="ignore", under="ignore"):
        return np.exp(-np.exp(_parallel_log_sum(s, x)))


def parallel_pdf(s: SystemModel, x) -> np.ndarray:
    """Density of the parallel lifetime: (cdf/sigma) * sum_i w_i."""
    _require(s, Topology.PARALLEL, "parallel_pdf")
    with np.errstate(over="ignore", under="ignore"):
        return np.exp(_parallel_log_pdf(s, x))


def parallel_reversed_hazard(s: SystemModel, x) -> np.ndarray:
    """Reversed hazard of the parallel lifetime, the sum of the component
    reversed hazards: (1/sigma) * sum_i w_i."""
    _require(s, Topology.PARALLEL, "parallel_reversed_hazard")
    with np.errstate(over="ignore", under="ignore"):
        return np.exp(_parallel_log_sum(s, x)) / s.sigma


def _parallel_log_cdf(s: SystemModel, x) -> np.ndarray:
    with np.errstate(over="ignore", under="ignore"):
        return -np.exp(_parallel_log_sum(s, x))


def _parallel_log_pdf(s: SystemModel, x) -> np.ndarray:
    log_s = _parallel_log_sum(s, x)
    with np.errstate(over="ignore", under="ignore"):
        return log_s - np.exp(log_s) - np.log(s.sigma)


def _parallel_log_survival(s: SystemModel, x) -> np.ndarray:
    log_s = _parallel_log_sum(s, x)
    with np.errstate(over="ignore", under="ignore"):
        return _fill_underflow(_log1mexp(np.exp(log_s)), lambda: log_s)


# -- series systems ----------------------------------------------------------

def series_survival(s: SystemModel, x) -> np.ndarray:
    """Survival of the series lifetime: prod_i (1 - exp(-w_i))."""
    _require(s, Topology.SERIES, "series_survival")
    with np.errstate(under="ignore"):
        return np.exp(_series_log_survival(s, x))


def series_hazard(s: SystemModel, x) -> np.ndarray:
    """Hazard of the series lifetime, the sum of the component hazards:
    (1/sigma) * sum_i phi(w_i)."""
    _require(s, Topology.SERIES, "series_hazard")
    return _series_hazard(s, x)


def _series_hazard(s: SystemModel, x) -> np.ndarray:
    with np.errstate(over="ignore", under="ignore"):
        w = np.exp(_logw(s, x))
    return phi(w).sum(axis=-1) / s.sigma


def _series_log_survival(s: SystemModel, x) -> np.ndarray:
    with np.errstate(over="ignore", under="ignore"):
        w = np.exp(_logw(s, x))
    return _fill_underflow(_log1mexp(w), lambda: _logw(s, x)).sum(axis=-1)


def _series_log_pdf(s: SystemModel, x) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(_series_hazard(s, x)) + _series_log_survival(s, x)


def _series_log_cdf(s: SystemModel, x) -> np.ndarray:
    log_sf = _series_log_survival(s, x)
    with np.errstate(divide="ignore", under="ignore"):
        return _log1mexp(-log_sf)


# -- topology dispatch --------------------------------------------------------

def system_log_cdf(s: SystemModel, x) -> np.ndarray:
    if s.topology is Topology.PARALLEL:
        return _parallel_log_cdf(s, x)
    return _series_log_cdf(s, x)


def system_log_survival(s: SystemModel, x) -> np.ndarray:
    if s.topology is Topology.PARALLEL:
        return _parallel_log_survival(s, x)
    return _series_log_survival(s, x)


def system_log_pdf(s: SystemModel, x) -> np.ndarray:
    if s.topology is Topology.PARALLEL:
        return _parallel_log_pdf(s, x)
    return _series_log_pdf(s, x)


def system_cdf(s: SystemModel, x) -> np.ndarray:
    if s.topology is Topology.PARALLEL:
        return parallel_cdf(s, x)
    with np.errstate(under="ignore"):
        return -np.expm1(_series_log_survival(s, x))


def system_survival(s: SystemModel, x) -> np.ndarray:
    if s.topology is Topology.PARALLEL:
        with np.errstate(under="ignore"):
            return -np.expm1(_parallel_log_cdf(s, x))
    return series_survival(s, x)


def system_pdf(s: SystemModel, x) -> np.ndarray:
    with np.errstate(under="ignore"):
        return np.exp(system_log_pdf(s, x))


def system_hazard(s: SystemModel, x) -> np.ndarray:
    if s.topology is Topology.SERIES:
        return _series_hazard(s, x)
    # the parallel lifetime is a Gumbel with inner exponential sum_i w_i,
    # so its hazard is phi(sum_i w_i)/sigma, stable across both tails
    with np.errstate(over="ignore", under="ignore"):
        return phi(np.exp(_parallel_log_sum(s, x))) / s.sigma


def system_reversed_hazard(s: SystemModel, x) -> np.ndarray:
    if s.topology is Topology.PARALLEL:
        return parallel_reversed_hazard(s, x)
    log_sf = _series_log_survival(s, x)
    rate = _series_hazard(s, x)
    with np.errstate(under="ignore", invalid="ignore", divide="ignore"):
        out = rate * np.exp(log_sf) / (-np.expm1(log_sf))
    # survival rounds to 1 when the cdf drops below double precision; there
    # the ratio f/F approaches w_min/sigma (the most fragile component)
    deep = log_sf == 0.0
    if np.any(deep):
        w_min = np.exp((s.mus[-1] - np.asarray(_checked_x(x), dtype=float)) / s.sigma)
        out = np.where(deep, w_min / s.sigma, out)
    return out


# -- quantiles ----------------------------------------------------------------

def _series_bracket(s: SystemModel, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form bracket for the series quantile from component quantiles.

    From min_i Fbar_i >= prod_i Fbar_i >= (min_i Fbar_i)^n it follows that
    ``min_i Q_i(1 - (1-u)^(1/n)) <= Q(u) <= min_i Q_i(u)``.
    """
    n = s.n
    comps = s.components()
    p_lo = -np.expm1(np.log1p(-u) / n)  # 1 - (1-u)^(1/n)
    lo = np.min([gumbel.quantile(c, p_lo) for c in comps], axis=0)
    hi = np.min([gumbel.quantile(c, u) for c in comps], axis=0)
    pad = 1e-9 * (1.0 + np.abs(lo)) * s.sigma
    return lo - pad, hi + pad


def system_quantiles(s: SystemModel, probs) -> np.ndarray:
    """Quantiles of the system law at each probability, vectorized.

    The parallel lifetime is itself Gumbel with location
    ``sigma * log(sum_i exp(mu_i/sigma))``, so its quantile is closed form.
    Series quantiles are found by safeguarded Newton on the log survival
    inside the component bracket, with bisection as fallback, until
    |cdf(result) - prob| < 1e-12.
    """
    u = np.atleast_1d(np.asarray(probs, dtype=float))
    if not np.all(np.isfinite(u)) or np.any(u <= 0.0) or np.any(u >= 1.0):
        raise DomainError(f"prob must lie strictly inside (0, 1), got {probs!r}")
    scalar = np.ndim(probs) == 0

    if s.topology is Topology.PARALLEL:
        loc = s.sigma * logsumexp(np.asarray(s.mus) / s.sigma)
        x = loc - s.sigma * np.log(-np.log(u))
        return x[0] if scalar else x
    if s.n == 1:
        x = gumbel.quantile(GumbelParams(s.mus[0], s.sigma), u)
        return x[0] if scalar else x

    target = np.log1p(-u)  # solve log survival = target

    lo, hi = _series_bracket(s, u)
    x = 0.5 * (lo + hi)
    for _ in range(120):
        gx = _series_log_survival(s, x) - target
        done = np.abs(_prob_residual(s, x, u)) < 1e-12
        if done.all():
            break
        # log survival decreases in x: g > 0 puts x left of the root
        lo = np.where(gx > 0, np.maximum(lo, x), lo)
        hi = np.where(gx < 0, np.minimum(hi, x), hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = x + gx / _series_hazard(s, x)
        inside = np.isfinite(newton) & (newton > lo) & (newton < hi)
        x = np.where(done, x, np.where(inside, newton, 0.5 * (lo + hi)))
        if np.all(hi - lo <= 1e-13 * np.maximum(1.0, np.abs(x))):
            break

    resid = np.abs(_prob_residual(s, x, u))
    for k in np.where(resid >= 1e-12)[0]:
        x[k] = _bisect_quantile(s, float(u[k]), float(lo[k]), float(hi[k]))
    return x[0] if scalar else x


def _prob_residual(s: SystemModel, x, u) -> np.ndarray:
    return system_cdf(s, x) - u


def _bisect_quantile(s: SystemModel, u: float, lo: float, hi: float) -> float:
    flo = float(system_cdf(s, lo)) - u
    fhi = float(system_cdf(s, hi)) - u
    width = max(abs(hi - lo), 1.0)
    while not (flo <= 0.0 <= fhi):
        lo -= width
        hi += width
        width *= 2.0
        flo = float(system_cdf(s, lo)) - u
        fhi = float(system_cdf(s, hi)) - u
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = float(system_cdf(s, mid)) - u
        if abs(fm) < 1e-13 or (hi - lo) <= 1e-13 * max(1.0, abs(mid)):
            return mid
        if fm < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def system_quantile(s: SystemModel, prob: float) -> float:
    """Quantile of the system law at one probability."""
    return float(system_quantiles(s, float(prob)))


# -- law views and evaluation grids --------------------------------------------

class LawOps:
    """Uniform callable view of a lifetime law.

    Wraps either a :class:`SystemModel` or any duck-typed object exposing at
    least ``pdf``, ``cdf``, ``survival`` and ``quantile`` (log-space methods
    and hazards are derived when absent).  The entropy and order-checking
    machinery works against this view, which is how synthetic laws (for
    example a constant-hazard fixture) can be pushed through the same checks
    as real systems.
    """

    def __init__(self, obj) -> None:
        self.source = obj
        if isinstance(obj, SystemModel):
            self.cdf = lambda x: system_cdf(obj, x)
            self.pdf = lambda x: system_pdf(obj, x)
            self.survival = lambda x: system_survival(obj, x)
            self.log_pdf = lambda x: system_log_pdf(obj, x)
            self.log_cdf = lambda x: system_log_cdf(obj, x)
            self.log_survival = lambda x: system_log_survival(obj, x)
            self.hazard = lambda x: system_hazard(obj, x)
            self.reversed_hazard = lambda x: system_reversed_hazard(obj, x)
            self.quantiles = lambda u: system_quantiles(obj, u)
            return
        for name in ("pdf", "cdf", "survival", "quantile"):
            if not callable(getattr(obj, name, None)):
                raise UsageError(
                    f"law object must provide a callable {name!r}, got {obj!r}"
                )
        self.cdf = obj.cdf
        self.pdf = obj.pdf
        self.survival = obj.survival
        self.log_pdf = getattr(obj, "log_pdf", None) or _logged(obj.pdf)
        self.log_cdf = getattr(obj, "log_cdf", None) or _logged(obj.cdf)
        self.log_survival = getattr(obj, "log_survival", None) or _logged(obj.survival)
        self.hazard = getattr(obj, "hazard", None) or (
            lambda x: np.asarray(obj.pdf(x)) / np.asarray(obj.survival(x)))
        self.reversed_hazard = getattr(obj, "reversed_hazard", None) or (
            lambda x: np.asarray(obj.pdf(x)) / np.asarray(obj.cdf(x)))
        self.quantiles = lambda u: np.vectorize(obj.quantile)(u)


def _logged(fn):
    def wrapped(x):
        with np.errstate(divide="ignore"):
            return np.log(np.asarray(fn(x), dtype=float))
    return wrapped


def as_law(obj) -> LawOps:
    """Return a :class:`LawOps` view of a system or duck-typed law."""
    return obj if isinstance(obj, LawOps) else LawOps(obj)


def make_grid(a: SystemModel, b: SystemModel, count: int = 2049,
              tail_cutoff: float = 1e-8) -> EvalGrid:
    """Uniform grid covering both systems up to the given tail mass.

    The window runs from the smaller of the two ``tail_cutoff`` quantiles to
    the larger of the two ``1 - tail_cutoff`` quantiles; beyond those points
    the ordering functions are dominated by rounding.
    """
    if count < 33:
        raise UsageError(f"count must be >= 33, got {count}")
    if not (0.0 < tail_cutoff < 0.5):
        raise DomainError(f"tail_cutoff must lie in (0, 0.5), got {tail_cutoff}")
    lo_p, hi_p = tail_cutoff, 1.0 - tail_cutoff
    lo = min(system_quantile(a, lo_p), system_quantile(b, lo_p))
    hi = max(system_quantile(a, hi_p), system_quantile(b, hi_p))
    return EvalGrid(points=np.linspace(lo, hi, count), lo_prob=lo_p, hi_prob=hi_p,
                    count=count)
