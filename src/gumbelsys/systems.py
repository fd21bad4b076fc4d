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

The parallel law is exactly Gumbel(L, sigma) with
``L = sigma * log(sum_i exp(mu_i/sigma))`` (the family is max-stable), so
every parallel function is a closed form at ``z = (x - L)/sigma`` and
``w = exp(-z)``: one term per point, whatever ``n``.  In log space
``log F = -w``, ``log f = -log(sigma) - z - w`` and
``log(1 - F) = log(1 - exp(-w))``, which is ``-z`` once ``w`` is below the
normal range; ``1 - F = -expm1(-w)`` and ``f/F = w/sigma`` exactly.  A
Gumbel(mu, sigma) component on its own is the one-component system.

A series function is a view of one kernel pass over the component-major
terms ``log w_i = (0.5 mu_i - 0.5 x)/(0.5 sigma)``, shaped ``(n, points)`` and
run in blocks of about 8k terms so that its temporaries stay in cache.  One
pass yields the log survival and the hazard together: ``w``, ``exp(-w)`` and
``-expm1(-w)`` are computed once per term and shared by the in-place steps of
``log1mexp`` and ``phi``, the only copies of those formulas, which the
parallel closed forms run too; ``_row_sums`` adds the terms of each point in
the order, and so to the bits, of numpy's ``add.reduce`` along a row.

A series pass over a read-only float array of at most ``_MEMO_POINTS``
points, which is what :func:`make_grid` returns, is memoised: the
order checks run lr, hr, rh and st on one grid in both directions, and every
one of those functions is a view of the same pass, so a system is evaluated
once per grid.  ``_grid_pass`` is a ``functools.lru_cache`` keyed on the
system and the bytes of the abscissae; it keeps the last ``_MEMO_ENTRIES``
passes, and callers get copies.  Writeable abscissae are never stored:
Newton iterates, quadrature nodes and Monte Carlo samples pay only the flag
test.  ``make_grid`` keeps its last ``_MEMO_ENTRIES`` grids of at most
``_MEMO_POINTS`` points (``_grid_points``) over immutable bytes and hands out
views, so ``check_disp``'s default grid is its caller's, passes and all.

Where a series log survival reaches a quantile's ``T = log1p(-u)`` has no
closed form for n > 1 (an entropy cut needs only a point where it is at most
``T``: ``_log_survival_bound``).  The log survival is concave (every component
is IFR), so every tangent lies above it: Newton started right of the root
moves left monotonically onto it, and a tangent reaches ``T`` at or right of
the root.  A start is the least of the closed-form root of the smallest
location alone, ``(sum_i mu_i - sigma T)/n`` (close in the right tail) and,
given a grid pass (``check_disp`` takes the memoised ``make_grid`` one), where
the tangents at the two grid points bracketing ``T`` reach it, which about
halves the passes.  One Newton loop serves any number of systems, one kernel
pass per step over the targets not yet solved of all of them, so both systems
of a pair take as many passes as the slower one.  A target stops when its log
survival residual is within ``2**-52 * |T|``, or once rounding has taken over:
its log survival no longer rises, or a step would no longer move it left.  Its
last pass is made at its root, so the density there comes with it.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UsageError, _check_count, _check_real

__all__ = [
    "MAX_COMPONENTS",
    "DEFAULT_TAIL_CUTOFF",
    "DEFAULT_X_POINTS",
    "Topology",
    "SystemModel",
    "phi",
    "system_cdf",
    "system_pdf",
    "system_survival",
    "system_hazard",
    "system_reversed_hazard",
    "system_log_cdf",
    "system_log_pdf",
    "system_log_survival",
    "system_quantiles",
    "make_grid",
]

#: Most components a :class:`SystemModel` takes.  Sums over components are
#: sequential below 8 terms, else 8 accumulators joined in a tree; beyond 64
#: the rounding budget of the ordering checks is no longer guaranteed.
MAX_COMPONENTS = 64

#: :func:`make_grid`'s defaults: the tail mass left outside its window, and its points.
DEFAULT_TAIL_CUTOFF = 1e-8
DEFAULT_X_POINTS = 2049

#: Component terms per block of a kernel pass.  One float temporary of a
#: block is 64 KB, so the half dozen a block holds stay in L2 cache.
_BLOCK_TERMS = 8192

#: A safety cap on the Newton passes of ``_series_roots``: the benchmark's
#: pool solves take at most 10.
_MAX_PASSES = 100

#: The Newton passes of ``_series_roots`` run over the targets not yet
#: done, padded with done ones to a multiple of this many.  numpy keeps
#: freed buffers below 1 KiB per size, so arrays of every small size would
#: hold memory that a few sizes do not.
_TRIM_ROWS = 64

#: Grid memo bounds: a pass over at most this many points is kept, and the
#: last ``_MEMO_ENTRIES`` passes are; an entry holds 24 bytes a point (the
#: abscissae and two results), so the memo pins at most 768 KiB, and
#: ``make_grid``'s as many grids 256 KiB.  A caller touches two systems a grid.
_MEMO_POINTS = 8192
_MEMO_ENTRIES = 4

#: the smallest normal double, the least sigma, and its log: below it
#: ``exp(log w)`` carries too few bits for ``log(1 - exp(-w))``
_TINY = float(np.finfo(float).tiny)
_LOG_TINY = float(np.log(_TINY))


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
        try:
            if isinstance(self.mus, str):  # it would iterate as its characters
                raise TypeError
            mus = tuple(float(m) for m in self.mus)
        except (TypeError, ValueError, OverflowError):  # OverflowError: an int past the doubles
            raise DomainError(f"mus must be real numbers, got {self.mus!r}") from None
        if len(mus) < 1:
            raise DomainError("a system needs at least one component")
        if len(mus) > MAX_COMPONENTS:
            raise DomainError(
                f"component count {len(mus)} exceeds MAX_COMPONENTS={MAX_COMPONENTS}"
            )
        if not all(map(math.isfinite, mus)):
            raise DomainError(f"all component locations must be finite, got {self.mus!r}")
        try:
            sigma = float(self.sigma)
        except (TypeError, ValueError, OverflowError):
            raise DomainError(f"sigma must be a real number, got {self.sigma!r}") from None
        if not (math.isfinite(sigma) and sigma >= _TINY):
            raise DomainError(f"sigma must be finite and at least the smallest normal "
                              f"double {_TINY!r}, got {self.sigma!r}")
        object.__setattr__(self, "mus", tuple(sorted(mus, reverse=True)))
        object.__setattr__(self, "sigma", sigma)

    @property
    def n(self) -> int:
        return len(self.mus)

    @functools.cached_property
    def _half_mus(self) -> np.ndarray:  # the column of every series kernel pass
        return 0.5 * np.array(self.mus)[:, None]


# -- log-space primitives -------------------------------------------------------

def _checked_x(x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"abscissa must be finite, got {x!r}")
    return arr


def _vector(x, what: str) -> np.ndarray:
    """``x`` as a 1-D float array, a scalar as one point and a float array as
    itself, not a copy; UsageError naming ``what`` and the shape of any other."""
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if arr.ndim != 1:
        raise UsageError(f"{what} must be 1-D, got shape {arr.shape}")
    return arr


#: the largest double
_MAX = float(np.finfo(float).max)

#: log of a ``w`` beyond which ``exp(-w)`` is 0: exp(-750) is far below half
#: the least subnormal
_LOG_W_ZERO = math.log(750.0)


def _standardized(a, b, sigma: float):
    """``(a - b)/sigma`` as ``(a/2 - b/2)/(sigma/2)``, whose difference cannot
    overflow where ``a - b`` would.  Halving a normal double is exact, so the
    two forms round alike wherever ``a``, ``b`` and ``sigma`` are normal.
    The quotient overflows where it lies beyond the doubles."""
    return (0.5 * a - 0.5 * b) / (0.5 * sigma)


# The term formulas, each written once as in-place steps on ``w >= 0`` (or
# ``log w``) shaped ``(rows, cols)`` and descending down each column, as in
# ``_kernel``, so a branch is tested on one row; other ``w`` run as one row
# (``_on_row``).  Branches not taken may overflow: run them under errstate.

def _neg_exps(w, m=None) -> tuple[np.ndarray, np.ndarray]:
    """``e = exp(-w)`` and ``m = -expm1(-w) = 1 - exp(-w)``, the two
    exponentials of the term formulas, ``m`` into the given array."""
    e = np.negative(w)
    m = np.expm1(e, out=m)
    np.negative(m, out=m)
    np.exp(e, out=e)
    return e, m


def _phi_terms(w, e, m, out=None) -> np.ndarray:
    """phi(w) = w/(e^w - 1) as ``w*e/m``; the series ``1 - w/2 + w^2/12``
    below w = 1e-5, where both factors vanish, and 0 at w = inf."""
    out = np.multiply(w, e, out=out)
    np.divide(out, m, out=out)
    if w.size and np.minimum.reduce(w[-1]) < 1e-5:
        small = w < 1e-5
        ws = w[small]
        out[small] = 1.0 - ws / 2.0 + ws * ws / 12.0
    if w.size and np.maximum.reduce(w[0]) == np.inf:
        out[w == np.inf] = 0.0
    return out


def _log1mexp_terms(w, e, m) -> np.ndarray:
    """log(1 - exp(-w)) into ``m``: ``log(m)`` up to w = ln 2, ``log1p(-e)``
    beyond it (the two-branch form of Maechler, 2012); ``e`` is spent."""
    near = w <= 0.6931471805599453
    np.log(m, out=m, where=near)
    np.negative(e, out=e)
    np.log1p(e, out=m, where=np.invert(near, out=near))
    return m


def _fill_underflow(out, logw) -> np.ndarray:
    """``log w`` in place of ``out = log(1 - exp(-w))`` where ``w`` is below the
    normal range: there ``out`` is ``-inf``, or the log of a subnormal that has
    lost precision, while ``log(1 - exp(-w)) = log w`` to double precision."""
    if logw.size and np.minimum.reduce(logw[-1]) < _LOG_TINY:
        low = logw < _LOG_TINY
        out[low] = logw[low]
    return out


def _on_row(step, w, logw=None) -> np.ndarray:
    """``step(w, e, m)`` of any ``w >= 0`` run as one row and shaped like ``w``,
    with ``_fill_underflow`` from ``logw`` when it is given."""
    w = np.asarray(w, dtype=float)
    row = w.reshape(1, -1)
    with np.errstate(all="ignore"):
        out = step(row, *_neg_exps(row))
    if logw is not None:
        _fill_underflow(out, logw.reshape(row.shape))
    return out.reshape(w.shape)


def _log1mexp(w, logw=None) -> np.ndarray:
    """log(1 - exp(-w)) for w >= 0, stable across the whole range."""
    return _on_row(_log1mexp_terms, w, logw)


def phi(t) -> np.ndarray:
    """t / (e^t - 1) on t >= 0, continuously extended to phi(0) = 1, as
    ``t * exp(-t) / (1 - exp(-t))``, which neither overflows nor cancels, and
    the series ``1 - t/2 + t^2/12`` below t = 1e-5 (``_phi_terms``)."""
    arr = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(arr) | np.isposinf(arr)) or np.any(arr < 0.0):
        raise DomainError(f"phi is defined on t >= 0, got {t!r}")
    return _on_row(_phi_terms, arr)


# -- parallel systems -------------------------------------------------------

def _location(s: SystemModel) -> float:
    """``L = sigma * log(sum_i exp(mu_i/sigma))``, the location of the Gumbel
    law of a parallel system, since
    ``prod_i F_i(x) = exp(-sum_i w_i) = exp(-exp(-(x - L)/sigma))``.  ``L`` is
    taken relative to the largest location, so one component gives its own."""
    top, half = s.mus[0], 0.5 * s.sigma
    # (m - top)/sigma halved as in _standardized, written out because it runs
    # once per component on every parallel call
    rest = math.fsum(math.exp((0.5 * m - 0.5 * top) / half) for m in s.mus[1:])
    loc = top + s.sigma * math.log1p(rest)
    if not math.isfinite(loc):
        raise DomainError(f"the parallel location overflows, mus {s.mus!r}")
    return loc


def _zw(s: SystemModel, x) -> tuple[np.ndarray, np.ndarray]:
    """``z = (x - L)/sigma`` and ``w = exp(-z) = sum_i w_i`` of a parallel
    system; ``z`` is +-inf only where it lies beyond the doubles."""
    x, loc = _checked_x(x), _location(s)
    with np.errstate(over="ignore", under="ignore"):
        z = _standardized(x, loc, s.sigma)
        return z, np.exp(-z)


# -- series systems ----------------------------------------------------------

def _row_sums(t: np.ndarray) -> np.ndarray:
    """Sums over the component axis of the component-major terms ``t``, shaped
    ``(..., n, rows)``, with the bits of numpy's ``add.reduce`` along a row of
    ``t.T``: ``0.0 +`` a pairwise sum (Higham, 1993) that is sequential below 8
    terms, and from 8 to 64 adds the terms into 8 strided accumulators, joins
    them in a 3-level tree and then adds the last ``n % 8`` terms in turn.  The
    sign of a zero only reaches the result through the ``0.0 +``, so the
    sequential sums may start at 0.0.  A column's sum must not depend on the
    pass's column count, which the Newton loop trims and a scalar call makes 1;
    numpy's own reduce over the component axis turns pairwise for one column."""
    n, rows = t.shape[-2:]
    if n < 8:
        out = t[..., 0, :] + 0.0
        for i in range(1, n):
            out += t[..., i, :]
        return out
    full = n - n % 8
    r = t[..., :full, :].reshape(*t.shape[:-2], -1, 8, rows).sum(axis=-3)
    r = r[..., 0::2, :] + r[..., 1::2, :]
    r = r[..., 0::2, :] + r[..., 1::2, :]
    out = r[..., 0, :] + r[..., 1, :]
    for i in range(full, n):
        out += t[..., i, :]
    out += 0.0
    return out


def _kernel(logw: np.ndarray) -> np.ndarray:
    """One block of a series pass: from the terms ``log w``, shaped ``(n, rows)``
    with the locations descending down each column, the column sums
    ``sum_i phi(w_i)`` and ``sum_i log(1 - exp(-w_i))``, shaped ``(2, rows)``.

    ``_phi_terms``, ``_log1mexp_terms`` and ``_fill_underflow`` share ``w`` and
    its two exponentials (``_neg_exps``) and write in place.  Where ``w > 750``,
    ``e`` is 0 and both terms are zeros: the leading rows where every term is
    that far out stay zeros and are not computed.  ``w`` is never NaN (``log w``
    is a quotient of finite doubles) and descends down each column.
    """
    terms = np.empty((2, *logw.shape))
    k = np.count_nonzero(np.minimum.reduce(logw, axis=1) > _LOG_W_ZERO)
    terms[:, :k] = 0.0
    if k < logw.shape[0]:
        w = np.exp(logw[k:])
        e, m = _neg_exps(w, terms[1, k:])
        _phi_terms(w, e, m, terms[0, k:])
        _fill_underflow(_log1mexp_terms(w, e, m), logw[k:])
    return _row_sums(terms)


def _run_rows(systems, xs) -> tuple[np.ndarray, np.ndarray]:
    """Log survival and hazard of series systems sharing ``n`` and ``sigma``,
    each at its own flat abscissae, concatenated: one kernel pass over
    ``log w = (0.5 mu_i - 0.5 x)/(0.5 sigma)`` (``_standardized``), in equal
    column blocks of about ``_BLOCK_TERMS`` terms.  A column never spans two
    blocks, so no sum depends on the blocking."""
    n, sigma = systems[0].n, systems[0].sigma
    halfx = 0.5 * (xs[0] if len(xs) == 1 else np.concatenate(xs))
    size = halfx.size
    parts = list(zip([s._half_mus for s in systems],
                     itertools.accumulate(x.size for x in xs)))
    log_sf, rate = np.empty(size), np.empty(size)
    blocks = max(1, round(size * n / _BLOCK_TERMS))
    step = max(1, -(-size // blocks))
    with np.errstate(all="ignore"):
        for c0 in range(0, size, step):
            c1 = min(c0 + step, size)
            logw = np.empty((n, c1 - c0))
            lo = c0
            for halfmu, end in parts:
                hi = min(end, c1)
                if lo < hi:
                    np.subtract(halfmu, halfx[lo:hi], out=logw[:, lo - c0:hi - c0])
                    lo = hi
            logw /= 0.5 * sigma
            rate[c0:c1], log_sf[c0:c1] = _kernel(logw)
        rate /= sigma
    return log_sf, rate


def _series_rows(systems, xs) -> tuple[np.ndarray, np.ndarray]:
    """Log survival and hazard of each series system at its flat abscissae
    ``xs``, concatenated; adjacent systems that share ``n`` and ``sigma``
    share one kernel pass."""
    runs = [_run_rows(*zip(*run)) for _, run in
            itertools.groupby(zip(systems, xs), key=lambda p: (p[0].n, p[0].sigma))]
    return runs[0] if len(runs) == 1 else tuple(np.concatenate(v) for v in zip(*runs))


@functools.lru_cache(maxsize=_MEMO_ENTRIES)
def _grid_pass(s: SystemModel, points_bytes: bytes) -> tuple:
    """Both outputs of a series pass over the flat abscissae ``points_bytes``.
    The arrays are the memo's own; callers copy them."""
    return _series_rows((s,), (np.frombuffer(points_bytes),))


def _series_pass(s: SystemModel, x):
    """Log survival and hazard of a series system from one blocked pass."""
    xv = _checked_x(x)
    if xv.flags.writeable or xv.size > _MEMO_POINTS:
        log_sf, rate = _series_rows((s,), (xv.reshape(-1),))
    else:
        log_sf, rate = (v.copy() for v in _grid_pass(s, xv.tobytes()))
    return log_sf.reshape(xv.shape)[()], rate.reshape(xv.shape)[()]


def _series_log_pdf(log_sf, rate) -> np.ndarray:
    """log density as log(hazard) + log survival."""
    with np.errstate(divide="ignore"):
        return np.log(rate) + log_sf


# -- topology dispatch --------------------------------------------------------

def system_log_cdf(s: SystemModel, x) -> np.ndarray:
    if s.topology is Topology.PARALLEL:
        return -_zw(s, x)[1]
    log_sf = _series_pass(s, x)[0]
    out = _log1mexp(-log_sf)
    # the cdf is below the normal range, so the log survival has rounded to
    # (or next to) 0; there 1 - prod_i (1 - exp(-w_i)) is sum_i exp(-w_i) to
    # a relative 1e-308
    deep = log_sf > -_TINY
    if np.any(deep):
        with np.errstate(over="ignore", under="ignore"):
            logw = _standardized(np.asarray(s.mus), np.asarray(x, dtype=float)[..., None],
                                 s.sigma)
            out = np.where(deep, np.logaddexp.reduce(-np.exp(logw), axis=-1), out)
    return out


def system_log_survival(s: SystemModel, x) -> np.ndarray:
    if s.topology is Topology.PARALLEL:
        z, w = _zw(s, x)
        return _log1mexp(w, -z)
    return _series_pass(s, x)[0]


def _parallel_log_pdf(s: SystemModel, z, w) -> np.ndarray:
    """``-log(sigma) - z - w`` of a parallel system from ``_zw``."""
    # where w overflows, -z - w is inf - inf; the density vanishes there
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        return np.where(np.isposinf(w), -np.inf, -np.log(s.sigma) - z - w)[()]


def system_log_pdf(s: SystemModel, x) -> np.ndarray:
    if s.topology is Topology.PARALLEL:
        return _parallel_log_pdf(s, *_zw(s, x))
    return _series_log_pdf(*_series_pass(s, x))


def _log_pdf_and_survival(s: SystemModel, x) -> tuple[np.ndarray, np.ndarray]:
    """``(system_log_pdf, system_log_survival)``, from one ``_zw`` for a
    parallel system and one kernel pass for a series one."""
    if s.topology is Topology.PARALLEL:
        z, w = _zw(s, x)
        return _parallel_log_pdf(s, z, w), _log1mexp(w, -z)
    log_sf, rate = _series_pass(s, x)
    return _series_log_pdf(log_sf, rate), log_sf


def system_cdf(s: SystemModel, x) -> np.ndarray:
    with np.errstate(under="ignore"):
        if s.topology is Topology.PARALLEL:
            return np.exp(-_zw(s, x)[1])
        return -np.expm1(_series_pass(s, x)[0])


def system_survival(s: SystemModel, x) -> np.ndarray:
    with np.errstate(under="ignore"):
        if s.topology is Topology.PARALLEL:
            return -np.expm1(-_zw(s, x)[1])
        return np.exp(_series_pass(s, x)[0])


def system_pdf(s: SystemModel, x) -> np.ndarray:
    with np.errstate(under="ignore"):
        return np.exp(system_log_pdf(s, x))


def system_hazard(s: SystemModel, x) -> np.ndarray:
    if s.topology is Topology.PARALLEL:
        return _on_row(_phi_terms, _zw(s, x)[1]) / s.sigma
    return _series_pass(s, x)[1]


def system_reversed_hazard(s: SystemModel, x) -> np.ndarray:
    if s.topology is Topology.PARALLEL:
        w = _zw(s, x)[1]
        with np.errstate(over="ignore"):
            return w / s.sigma
    log_sf, rate = _series_pass(s, x)
    with np.errstate(all="ignore"):
        out = rate * np.exp(log_sf) / (-np.expm1(log_sf))
        # survival rounds to 1 when the cdf drops below double precision;
        # there the ratio f/F approaches w_min/sigma (the most fragile
        # component), which overflows to inf far enough left
        deep = log_sf == 0.0
        if np.any(deep):
            w_min = np.exp(_standardized(s.mus[-1], np.asarray(x, dtype=float), s.sigma))
            out = np.where(deep, w_min / s.sigma, out)
    return out


# -- quantiles ----------------------------------------------------------------

def _series_roots(systems, targets, starts) -> tuple[np.ndarray, ...]:
    """Where the log survival of each series system equals each of its
    ``targets``, by monotone Newton from ``starts``, closed-form bounds right
    of every root; the roots of all systems come back concatenated, with the
    log survival and hazard there.

    Every component is IFR, so the log survival is concave and decreasing
    (Barlow and Proschan, 1975): every tangent lies above it, and Newton
    started right of the root steps left without crossing it.  A target is
    done when its residual is within ``2**-52 * |target|``; when rounding has
    taken over, so that its log survival no longer rises or its step no
    longer moves x left; or when its step is not finite (the hazard
    underflows far left).  A start right of the largest double starts at
    it, and a root found beyond it is ``inf``; a start of ``-inf`` stays.
    Each step makes one kernel pass (``_series_rows``) over the targets of
    every system not yet done (see ``_TRIM_ROWS``); a done ``x`` is frozen,
    so leaving it out of later passes changes no bit, and the last pass a
    target is in was made at its root.
    """
    sizes = [t.size for t in targets]
    target, x = np.concatenate(targets), np.concatenate(starts)
    sigma = np.repeat([s.sigma for s in systems], sizes)
    tol = np.abs(target) * 2.0**-52
    last, rate = np.full(x.size, -np.inf), np.full(x.size, np.nan)
    bounds = np.cumsum([0] + sizes)  # the targets of system k are bounds[k]:bounds[k + 1]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # a relative pad covers the rounding of the kernel at the start
        x = np.minimum(x + 1e-9 * np.minimum(sigma + np.abs(x), _MAX), _MAX)
        # the targets a pass runs over, ascending, and their x, target, tol and
        # the log survival of their previous pass
        todo = np.flatnonzero(np.isfinite(x))
        xt, tt, tolt, lastt = x[todo], target[todo], tol[todo], last[todo]
        cuts = np.searchsorted(todo, bounds)
        for step in range(_MAX_PASSES + 1):
            log_sf, r = _series_rows(systems, [xt[i:j] for i, j in zip(cuts, cuts[1:])])
            gx = log_sf - tt
            newton = xt + gx / r
            # stalled: mu_i - x has stopped resolving the steps, so the log
            # survival no longer rises
            done = ((np.abs(gx) <= tolt) | (log_sf <= lastt)
                    | ~(np.isfinite(newton) & (newton < xt)) | (step == _MAX_PASSES))
            xt, lastt = np.where(done, xt, newton), log_sf
            count = np.count_nonzero(done)
            if count == done.size:
                break
            # drop the done targets, keeping a multiple of _TRIM_ROWS
            keep = -(-(done.size - count) // _TRIM_ROWS) * _TRIM_ROWS
            if keep < done.size:
                x[todo], last[todo], rate[todo] = xt, lastt, r
                sel = done.argsort(kind="stable")[:keep]
                sel.sort()
                todo, xt, tt, tolt, lastt = todo[sel], xt[sel], tt[sel], tolt[sel], lastt[sel]
                cuts = np.searchsorted(todo, bounds)
        x[todo], last[todo], rate[todo] = xt, lastt, r
    # the log survival at the largest double is still above the target
    return np.where((x == _MAX) & (last - target > tol), np.inf, x), last, rate


def _gumbel_roots(m: float, sigma: float, logw: np.ndarray) -> np.ndarray:
    """``m - sigma * logw`` as ``2 * (m/2 - (sigma/2) * logw)``, finite wherever
    the root is a double (see ``_standardized``)."""
    with np.errstate(over="ignore", under="ignore"):
        return 2.0 * (0.5 * m - 0.5 * sigma * logw)


def _tangent_starts(s: SystemModel, grid: np.ndarray, target, start) -> np.ndarray:
    """The least of ``start`` and where the tangents of the log survival of a
    series system at the two points of ``grid`` bracketing each target reach
    it; a target outside the grid's window keeps its ``start``."""
    log_sf, rate = _series_pass(s, grid)
    k = np.searchsorted(-log_sf, -target, side="right")  # log_sf[k - 1] >= T > log_sf[k]
    inside = (k > 0) & (k < log_sf.size)
    k = np.clip(k, 1, log_sf.size - 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        tangents = grid[[k - 1, k]] + (log_sf[[k - 1, k]] - target) / rate[[k - 1, k]]
    return np.where(inside, np.fmin(start, np.fmin.reduce(tangents)), start)


def _right_starts(s: SystemModel, target) -> np.ndarray:
    """``(sum_i mu_i - sigma T)/n``, right of the root of each target ``T`` as
    ``log(1 - e^-w) <= log w``; from halves, it overflows only to +inf."""
    with np.errstate(over="ignore"):
        return 2.0 * (np.sum(s._half_mus / s.n) - 0.5 * s.sigma * target / s.n)


def _log_survival_bound(s: SystemModel, target: float) -> float:
    """A point where the log survival is at most ``target < 0``, as
    ``log(1 - e^-w) <= min(0, log w)`` puts it: the least over k of
    ``(mu_(1) + ... + mu_(k) - sigma T)/k`` over the k smallest locations of a
    series system, or of the one location L of a parallel one.  The prefix
    sums are of ``mu_i/(2n)``, which cannot overflow (as in ``_right_starts``),
    and x is padded right by ``2**-48 (|x| + sigma |T|)`` over the rounding
    of x and of the log survival there.  A loop: n is small, and a few numpy
    calls would cost more."""
    mus = (_location(s),) if s.topology is Topology.PARALLEL else s.mus[::-1]  # ascending
    n, total, x = len(mus), 0.0, math.inf
    for k, m in enumerate(mus, 1):
        total += 0.5 * m / n
        x = min(x, 2.0 * (total * (n / k) - 0.5 * s.sigma * target / k))
    return x + 2.0**-48 * (abs(x) - s.sigma * target)


def _quantile_roots(systems, probs, grid=None) -> list[tuple]:
    """Each system's quantiles at the probabilities ``u`` of ``probs``
    (flattened), where its log survival is ``T = log1p(-u)``, as ``(x, passed)``:
    ``passed`` is the log survival and hazard at ``x`` from the last Newton
    pass, or None for the closed form ``m - sigma * log(-log(u))`` of a
    Gumbel(m, sigma) law, which a parallel or one-component system is
    (``_gumbel_roots``).  Other series systems start from the least of that
    point at the smallest location, right of the root since
    ``prod_i Fbar_i <= min_i Fbar_i`` (rounding is monotone), ``_right_starts``
    and the tangents on ``grid`` (``_tangent_starts``), in one ``_series_roots``."""
    u = np.asarray(probs, dtype=float).ravel()
    bad = ~((u > 0.0) & (u < 1.0))  # NaN too
    if bad.any():
        raise DomainError(f"prob must lie strictly inside (0, 1), got {float(u[bad][0])!r}")
    t, logw = np.log1p(-u), np.log(-np.log(u))
    out = [(_gumbel_roots(_location(s) if s.topology is Topology.PARALLEL else s.mus[-1],
                          s.sigma, logw), None) for s in systems]
    newton = [k for k, s in enumerate(systems) if s.topology is Topology.SERIES and s.n > 1]
    if newton:
        starts = [np.fmin(out[k][0], _right_starts(systems[k], t)) for k in newton]
        if grid is not None:
            starts = [_tangent_starts(systems[k], grid, t, x) for k, x in zip(newton, starts)]
        x, log_sf, rate = _series_roots([systems[k] for k in newton], [t] * len(newton), starts)
        parts = zip(*(np.split(v, len(newton)) for v in (x, log_sf, rate)))
        for k, (xk, log_sf_k, rate_k) in zip(newton, parts):
            out[k] = xk, (log_sf_k, rate_k)
    return out


def system_quantiles(s: SystemModel, probs) -> np.ndarray:
    """Quantiles of the system law at each probability, shaped like ``probs``.

    The quantile of a parallel or one-component system is the closed form
    ``m - sigma * log(-log(u))``; other series quantiles come from
    ``_series_roots`` at ``log1p(-u)``.
    """
    return _quantile_roots((s,), probs)[0][0].reshape(np.shape(probs))[()]


def _quantiles_and_pdfs(systems, probs, grid=None) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each system's quantiles at ``probs`` and its density there, with the
    bits of ``system_pdf``: a series system solved by Newton (from ``grid``)
    takes them from the log survival and hazard of its last pass, and the
    others call it."""
    out = []
    for s, (x, passed) in zip(systems, _quantile_roots(systems, probs, grid)):
        if passed is None:
            f = system_pdf(s, x)
        else:
            _checked_x(x)  # a root beyond the doubles raises as in system_pdf
            with np.errstate(under="ignore"):
                f = np.exp(_series_log_pdf(*passed))
        out.append((x, f))
    return out


# -- evaluation grids -----------------------------------------------------------

def _grid(systems, lo_p: float, hi_p: float, count: int, hi_of=max) -> np.ndarray:
    """``count`` evenly spaced points from the least ``lo_p`` quantile of
    ``systems`` to ``hi_of`` their ``hi_p`` quantiles, from one Newton loop;
    DomainError, naming the window, where an end or the width lies beyond the
    doubles or it holds fewer than ``max(count, 2)`` distinct doubles."""
    roots = [x.tolist() for x, _ in _quantile_roots(systems, np.array([lo_p, hi_p]))]
    lo, hi = min(x[0] for x in roots), hi_of(x[1] for x in roots)
    if math.isfinite(hi - lo):  # float arithmetic: inf or NaN, with no warning
        points = np.linspace(lo, hi, count)
        if lo < hi and np.all(np.diff(points) > 0):
            return points
    reason = ("has an end beyond the doubles" if math.isinf(lo) or math.isinf(hi)
              else "is wider than the largest double" if math.isinf(hi - lo)
              else f"holds too few doubles for {max(count, 2)} points")
    raise DomainError(f"the window [{lo!r}, {hi!r}] from Q({float(lo_p)!r}) to "
                      f"Q({float(hi_p)!r}) {reason}")


def make_grid(a: SystemModel, b: SystemModel, count: int = DEFAULT_X_POINTS,
              tail_cutoff: float = DEFAULT_TAIL_CUTOFF) -> np.ndarray:
    """Uniform grid covering both systems up to the given tail mass.

    The window runs from the smaller of the two ``tail_cutoff`` quantiles to
    the larger of the two ``1 - tail_cutoff`` quantiles (``_grid``); beyond
    those points the ordering functions are dominated by rounding.  The
    points come back as a read-only view of memoised points, so that passes
    over them are memoised.  A window the doubles cannot hold, or holding fewer
    than ``count`` distinct doubles, raises :class:`DomainError`.
    """
    _check_count(count, 33, UsageError)
    _check_real(tail_cutoff, 0, 0.5, "tail_cutoff")
    build = _grid_points if count <= _MEMO_POINTS else _grid_points.__wrapped__
    a, b = sorted((a, b), key=lambda s: (s.topology.value, s.mus, s.sigma))  # one memo key
    return build(a, b, count, tail_cutoff).view()


@functools.lru_cache(maxsize=_MEMO_ENTRIES)
def _grid_points(a: SystemModel, b: SystemModel, count: int, tail_cutoff: float) -> np.ndarray:
    """:func:`make_grid`'s points over immutable bytes: no view of them can be
    made writeable, or reshape the memo's."""
    return np.frombuffer(_grid((a, b), tail_cutoff, 1.0 - tail_cutoff, count).tobytes())
