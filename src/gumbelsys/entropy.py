"""Shannon and residual-lifetime entropy of system laws by panel quadrature.

The residual entropy at conditioning time ``t`` is computed through two
algebraically equivalent integral forms,

* hazard form:   ``1 - (1/Fbar(t)) * int_t f(x) log r(x) dx``
* density form:  ``log Fbar(t) - (1/Fbar(t)) * int_t f(x) log f(x) dx``

and their agreement is the cross-check on every value, Shannon entropies too.
The hazard's log is taken as ``log f - log Fbar``, since it spans decades.

Each integral runs from ``t`` to the system's one cut, a point where its
survival is at most ``c**2`` (c the ``tail_mass_cutoff``): a time has a value
only where ``Fbar(t) > c``, so the conditional mass left out,
``m <= c**2/Fbar(t)``, is below c (Ebrahimi, 1996), and the two forms differ
by the truncation, at most ``m * (1 - 2 log c)``.  The cut needs no root: it
is the closed form ``systems._log_survival_bound`` at ``2 log c``, from
``log(1 - e^-w) <= min(0, log w)``, so an lu check solves only its t grid.

All times of one call share one pass: the breakpoints ``ts`` and the cut
are split into panels at most half the system's scale ``sigma`` wide, each
integrated by the 21-point Kronrod rule with the embedded 10-point Gauss rule
as error estimate (QUADPACK's qk21, Piessens et al. 1983); failing panels are
bisected, and ``int_t^cut`` is a suffix sum over the gaps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UsageError, _check_count, _check_real
from .systems import (SystemModel, _grid, _log_pdf_and_survival, _log_survival_bound, _vector,
                      system_log_survival)

__all__ = [
    "QuadratureSpec",
    "EntropyValue",
    "shannon_entropy",
    "residual_entropy",
    "entropy_curve",
]

# QUADPACK's qk21 on [0, 1]: the Kronrod nodes from the right end in, their
# weights, and the weights of the 10-point Gauss rule whose nodes are the
# odd entries of _XK
_XK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0])
_WK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338])
# mirrored onto [-1, 1]: 21 ascending nodes, the Gauss ones at the odd indices
_NODES = np.concatenate([-_XK, _XK[-2::-1]])
_W21 = np.concatenate([_WK, _WK[-2::-1]])
_W10 = np.concatenate([_WG, _WG[::-1]])

#: more panels than an index can count (as a float, so that the check itself
#: cannot overflow)
_MAX_PANELS = float(np.iinfo(np.intp).max)


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and budget for the panel integrator.

    A panel passes when its 21- and 10-point rules differ by at most
    ``max(abs_tol, rel_tol * int |integrand|)`` in both forms.  Failing
    panels are bisected, at most ``max_subdivisions`` times per call; a value
    whose window holds a panel that still fails is not converged.  A time t
    has a residual entropy only where ``Fbar(t) > tail_mass_cutoff = c``; its
    window ends at a closed-form point where ``Fbar <= c**2``, leaving out
    conditional mass below c.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-13
    tail_mass_cutoff: float = 1e-12
    max_subdivisions: int = 2000

    def __post_init__(self) -> None:
        _check_real(self.rel_tol, 0, 1e-4, "rel_tol")
        _check_real(self.abs_tol, 0, name="abs_tol")
        _check_real(self.tail_mass_cutoff, 0, 0.5, "tail_mass_cutoff")
        _check_count(self.max_subdivisions, 1, name="max_subdivisions")


@dataclass(frozen=True)
class EntropyValue:
    """An entropy in nats with its error estimate and convergence flag."""

    value: float
    error_estimate: float
    converged: bool

    def __post_init__(self) -> None:
        if not (math.isnan(self.error_estimate) or self.error_estimate >= 0.0):
            raise DomainError("error_estimate must be nonnegative")


def _panels(s: SystemModel, a: np.ndarray, b: np.ndarray, q: QuadratureSpec):
    """Hazard- and density-form integrals of each panel [a, b] by the 21-point
    Kronrod rule, their error estimates against the embedded 10-point Gauss
    rule and pass flags, each shaped (2, panels)."""
    half = 0.5 * (b - a)
    x = (0.5 * (a + b))[:, None] + half[:, None] * _NODES
    lp, ls = (v.reshape(x.shape) for v in _log_pdf_and_survival(s, x.ravel()))
    with np.errstate(under="ignore", invalid="ignore"):
        f = np.exp(lp)
        live = f > 0.0
        g = np.stack([np.where(live, f * (lp - ls), 0.0), np.where(live, f * lp, 0.0)])
    value = (g @ _W21) * half
    mass = (np.abs(g) @ _W21) * half
    err = np.abs(value - (g[..., 1::2] @ _W10) * half)
    return value, err, err <= np.maximum(q.abs_tol, q.rel_tol * mass)


def _integrate(s: SystemModel, edges: np.ndarray, q: QuadratureSpec):
    """Both forms integrated over each gap between consecutive ``edges``:
    values, error estimates and counts of panels failing their error test,
    each shaped (2, gaps).  A gap adds up the panels the rounds keep in round
    order, from 0.0 (``bincount``)."""
    with np.errstate(over="ignore"):  # a window wider than the doubles
        gaps = np.diff(edges)
        counts = np.maximum(1.0, np.ceil(gaps / (0.5 * s.sigma)))
    if not counts.sum() < _MAX_PANELS:
        raise DomainError(f"the window [{edges[0]:.3g}, {edges[-1]:.3g}] needs more panels "
                          f"of width sigma/2 = {0.5 * s.sigma:.3g} than an array can hold")
    counts = counts.astype(int)
    owner = np.repeat(np.arange(gaps.size), counts)
    step = np.arange(owner.size) - np.repeat(np.cumsum(counts) - counts, counts)
    cuts = np.append(edges[owner] + gaps[owner] * (step / counts[owner]), edges[-1:])
    a, b = cuts[:-1], cuts[1:]

    rounds = []  # the owner, values, errors and fail flags of the panels each round keeps
    budget = q.max_subdivisions
    while True:
        v, e, ok = _panels(s, a, b, q)
        split = np.flatnonzero(~ok.all(axis=0))[:budget]
        budget -= split.size
        keep = np.delete(np.arange(a.size), split)
        rounds.append((owner[keep], v[:, keep], e[:, keep], ~ok[:, keep]))
        if not split.size:
            break
        mid = 0.5 * (a[split] + b[split])
        a, b = np.concatenate([a[split], mid]), np.concatenate([mid, b[split]])
        owner = np.tile(owner[split], 2)
    owner, v, e, bad = (np.concatenate(r, axis=-1) for r in zip(*rounds))
    index = np.concatenate([owner, owner + gaps.size])  # form 1 after form 0
    return tuple(np.bincount(index, weights=w.ravel(), minlength=2 * gaps.size).reshape(2, -1)
                 for w in (v, e, bad))


def _log_survival(s: SystemModel, ts: np.ndarray) -> np.ndarray:
    """Log survival at each finite t, -inf at the others."""
    log_sf = np.full(ts.shape, -np.inf)
    finite = np.isfinite(ts)
    log_sf[finite] = system_log_survival(s, ts[finite])
    return log_sf


def _cutoff(q) -> float:
    """The ``tail_mass_cutoff`` of ``q``; UsageError unless it is a :class:`QuadratureSpec`."""
    if not isinstance(q, QuadratureSpec):
        raise UsageError(f"quad must be a QuadratureSpec, got {q!r}")
    return q.tail_mass_cutoff


def _residual_forms(systems, ts, log_sfs, q: QuadratureSpec) -> list[tuple]:
    """Each system's hazard- and density-form values, errors and convergence
    flags at every time of the 1-D ``ts``, each shaped (2, times), from its
    ``_log_survival`` at ``ts`` in ``log_sfs``, to its cut at the log survival
    bound ``2 log c``; first, DomainError at the first system's first time
    without a value."""
    c = _cutoff(q)
    sfs = [np.exp(v) for v in log_sfs]
    for sf in sfs:
        bad = sf <= c  # which holds every time that is not finite
        if bad.any():
            k = int(np.argmax(bad))
            if not np.isfinite(ts[k]):
                raise DomainError(f"conditioning time must be finite, got {float(ts[k])!r}")
            raise DomainError(
                f"survival at t={float(ts[k])} is {sf[k]:.3e}, at or below the tail mass "
                f"cutoff {c:.1e}; move t left or relax the cutoff")
    out = []
    for s, sf_t, log_sf_t in zip(systems, sfs, log_sfs):
        cut = _log_survival_bound(s, 2.0 * math.log(c))  # right of every time with a value
        edges, where = np.unique(np.append(ts, cut), return_inverse=True)
        value, error, failed = _integrate(s, edges, q)

        def window(v):  # int_t^cut, the cut the last edge: a suffix sum over the gaps
            return np.cumsum(v[:, ::-1], axis=1)[:, ::-1][:, where[:-1]]

        ints = window(value)
        values = np.stack([1.0 - ints[0] / sf_t, log_sf_t - ints[1] / sf_t])
        out.append((values, window(error) / sf_t, window(failed) == 0))
    return out


def _agreed(values, errs, ok, q: QuadratureSpec) -> tuple[np.ndarray, ...]:
    """Hazard-form values, errors and flags: converged where both forms converged
    and agree within ``10 * rel_tol * max(1, |value|)``; the gap joins the error."""
    gap = np.abs(values[0] - values[1])
    agree = gap <= 10.0 * q.rel_tol * np.maximum(1.0, np.abs(values[0]))
    return values[0], errs[0] + gap, ok[0] & ok[1] & agree


def _entropy_values(forms, q: QuadratureSpec) -> list[EntropyValue]:
    """``_agreed`` of one system's forms as :class:`EntropyValue` objects."""
    return [EntropyValue(*v) for v in zip(*(x.tolist() for x in _agreed(*forms, q)))]


def residual_entropy(s, t, q: QuadratureSpec = QuadratureSpec()):
    """Entropy of the remaining lifetime given survival past ``t``.

    Returns the hazard-form value; the two forms must agree within
    ``10 * rel_tol * max(1, |value|)`` for the result to count as converged,
    and their discrepancy is folded into the error estimate.  A scalar ``t``
    gives one :class:`EntropyValue`, a 1-D ``t`` a list of them.
    """
    ts = _vector(t, "t")
    out = _entropy_values(_residual_forms((s,), ts, [_log_survival(s, ts)], q)[0], q)
    return out[0] if np.ndim(t) == 0 else out


def entropy_curve(s, t_grid, q: QuadratureSpec = QuadratureSpec()) -> list[EntropyValue]:
    """Residual entropy at each grid time; times without a value (not finite,
    or past the cutoff) become non-converged NaN entries instead of aborting
    the remaining points."""
    ts = _vector(t_grid, "t_grid")
    log_sf = _log_survival(s, ts)
    good = np.exp(log_sf) > _cutoff(q)
    values = iter(_entropy_values(_residual_forms((s,), ts[good], [log_sf[good]], q)[0], q))
    return [next(values) if g else EntropyValue(float("nan"), float("inf"), False)
            for g in good]


def shannon_entropy(s, q: QuadratureSpec = QuadratureSpec()) -> EntropyValue:
    """Differential entropy -int f log f from ``Q(c)`` to ``Q(1 - c)``, c the
    tail mass cutoff (``systems._grid``), by the density form; converged as in
    ``_agreed`` with the hazard form ``1 - 2c + c log c - (1 - c) log(1 - c) -
    int f log h``, since ``int f log Fbar`` there is ``int_c^(1-c) log u du``."""
    c = _cutoff(q)
    ints, errs, failed = (v[:, 0].tolist() for v in _integrate(s, _grid((s,), c, 1.0 - c, 2), q))
    hazard = 1.0 - 2.0 * c + c * math.log(c) - (1.0 - c) * math.log1p(-c) - ints[0]
    agree = abs(ints[1] + hazard) <= 10.0 * q.rel_tol * max(1.0, abs(ints[1]))
    return EntropyValue(-ints[1], errs[1], agree and not any(failed))
