"""Verdict engine for stochastic-order checks between two system lifetimes.

Six relations are supported: likelihood ratio (lr), hazard rate (hr),
reversed hazard rate (rh), usual stochastic (st), dispersive (disp) and
less-uncertainty (lu).  Each check compares the two laws on a deterministic
audit grid and returns a three-valued :class:`OrderVerdict`:

* ``HOLDS``  means "no violation beyond tolerance was observed on the audit
  grid".  A grid scan can never prove a statement quantified over all reals,
  so this is deliberately weaker than a theorem.
* ``FAILS`` carries a witness: the first grid point (or adjacent pair, for
  monotonicity-style checks) where the defining inequality is broken beyond
  tolerance.
* ``INCONCLUSIVE`` signals that the check could not be trusted: too many
  unrepresentable densities for lr, a compared value that is not finite (with
  no violation where both are), disagreeing dual criteria for disp, or
  non-converged quadrature for lu.

Direction conventions follow the usual definitions.  With ``a`` the first
argument and ``b`` the second, ``FIRST_SMALLER`` verifies ``a <= b`` in the
given order, e.g. hr: hazard of ``a`` dominates hazard of ``b`` pointwise;
``FIRST_GREATER`` verifies the mirror image, and is evaluated as
``FIRST_SMALLER`` on ``(b, a)``.  The lr check works on log
densities, never on raw ratios, because tail underflow would fabricate
non-monotonicity.  Every HOLDS and FAILS verdict comes from
:func:`_dominance_verdict`; lr passes it the steps of the log-density
difference.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .entropy import QuadratureSpec, _agreed, _log_survival, _residual_forms
from .entropy import residual_entropy  # noqa: F401 - a site the benchmark's tracer requires
from .errors import DomainError, UsageError, _check_count
from .systems import (DEFAULT_X_POINTS, SystemModel, Topology, _location, _grid,
                      _quantiles_and_pdfs, _vector, make_grid, system_cdf, system_hazard,
                      system_log_pdf, system_reversed_hazard)

__all__ = [
    "Relation",
    "Direction",
    "Outcome",
    "Witness",
    "OrderVerdict",
    "AuditReport",
    "DEFAULT_X_POINTS",
    "DEFAULT_P_POINTS",
    "DEFAULT_T_POINTS",
    "make_p_grid",
    "make_t_grid",
    "check_lr",
    "check_hr",
    "check_rh",
    "check_st",
    "check_disp",
    "check_lu",
    "check",
    "parallel_rh_log_margin",
    "implication_audit",
]

DEFAULT_P_POINTS = 513
DEFAULT_T_POINTS = 64

_LR_STEP_SLACK = 1e-9
_RATE_SLACK = 1e-10
_ST_SLACK = 1e-12
_LR_FINITE_FRACTION = 0.80


class Relation(enum.Enum):
    LR = "lr"
    HR = "hr"
    RH = "rh"
    ST = "st"
    DISP = "disp"
    LU = "lu"


class Direction(enum.Enum):
    FIRST_GREATER = "first_greater"
    FIRST_SMALLER = "first_smaller"


class Outcome(enum.Enum):
    HOLDS = "holds"
    FAILS = "fails"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Witness:
    """First observed violation: abscissa plus the two compared values
    (lhs is the quantity that should have dominated rhs)."""

    x: float
    lhs: float
    rhs: float


@dataclass(frozen=True)
class OrderVerdict:
    relation: Relation
    direction: Direction
    outcome: Outcome
    witness: Witness | None
    margin: float

    def __post_init__(self) -> None:
        if (self.witness is not None) != (self.outcome is Outcome.FAILS):
            raise UsageError("witness must be present exactly when the outcome is FAILS")
        if not np.isfinite(self.margin):
            raise UsageError(f"margin must be finite, got {self.margin}")

    @property
    def holds(self) -> bool:
        return self.outcome is Outcome.HOLDS


def _validate_pair(a, b, direction=Direction.FIRST_SMALLER, grid=None, default=None):
    """The one input gate of the checks: ``(a, b, points)``, the pair comparable and in
    FIRST_SMALLER order (``(b, a)`` for FIRST_GREATER), the points the caller's grid as
    a nonempty 1-D float array, else ``default(a, b)`` on that pair (None for none)."""
    if not (isinstance(a, SystemModel) and isinstance(b, SystemModel)):
        raise UsageError(f"expected two SystemModel arguments, got "
                         f"{type(a).__name__} and {type(b).__name__}")
    if a.topology is not b.topology:
        raise UsageError(
            f"cannot compare {a.topology.value} with {b.topology.value} system")
    if a.sigma != b.sigma:
        raise UsageError(
            f"systems must share the scale parameter, got {a.sigma} and {b.sigma}")
    if not isinstance(direction, Direction):
        raise UsageError(f"direction must be a Direction, got {direction!r}")
    a, b = (b, a) if direction is Direction.FIRST_GREATER else (a, b)
    if grid is None:
        return a, b, default(a, b) if default else None
    pts = _vector(grid, "a grid")
    if pts.size == 0:
        raise UsageError("a grid needs at least one point")
    return a, b, pts


def _ascending(xs: np.ndarray) -> None:
    """UsageError at the first step where the grid ``xs`` descends."""
    down = xs[1:] < xs[:-1]
    if down.any():
        k = int(np.argmax(down))
        raise UsageError(f"a grid must be ascending, got {float(xs[k + 1])!r} "
                         f"after {float(xs[k])!r}")


def _dominance_verdict(relation: Relation, direction: Direction, xs: np.ndarray,
                       lhs: np.ndarray, rhs: np.ndarray, tol) -> OrderVerdict:
    """FAILS at the first point where lhs < rhs - tol with both sides finite,
    else INCONCLUSIVE where a side is not finite, else HOLDS; the margin is
    the least finite lhs - rhs, 0.0 on none."""
    lhs = np.asarray(lhs, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    finite = np.isfinite(lhs) & np.isfinite(rhs)
    with np.errstate(invalid="ignore"):  # inf - inf
        diff = lhs - rhs
    bad = finite & (diff < -np.asarray(tol))
    margin = float(diff[finite].min()) if finite.any() else 0.0
    if bad.any():
        k = int(np.argmax(bad))
        wit = Witness(x=float(xs[k]), lhs=float(lhs[k]), rhs=float(rhs[k]))
        return OrderVerdict(relation, direction, Outcome.FAILS, wit, margin)
    outcome = Outcome.HOLDS if finite.all() else Outcome.INCONCLUSIVE
    return OrderVerdict(relation, direction, outcome, None, margin)


def check_lr(a, b, grid=None,
             direction: Direction = Direction.FIRST_SMALLER) -> OrderVerdict:
    """Likelihood ratio order: the log-density difference of the dominating
    law over the dominated one must be nondecreasing across the grid, which
    must ascend."""
    a, b, xs = _validate_pair(a, b, direction, grid, make_grid)
    da, db = system_log_pdf(a, xs), system_log_pdf(b, xs)
    _ascending(xs)  # the steps are read in grid order
    with np.errstate(invalid="ignore"):
        d = db - da

    finite = np.isfinite(d)
    if finite.mean() < _LR_FINITE_FRACTION:
        # too many unrepresentable densities to trust a monotonicity scan
        return OrderVerdict(Relation.LR, direction, Outcome.INCONCLUSIVE, None, 0.0)
    dk = d[finite]
    xk = xs[finite]
    return _dominance_verdict(Relation.LR, direction, xk[1:], dk[1:], dk[:-1],
                              _LR_STEP_SLACK)


def _rate_tol(ra: np.ndarray, rb: np.ndarray) -> np.ndarray:
    """Pointwise slack for rate comparisons: relative to the local magnitude
    with an absolute floor.  A single global scale would let the huge values
    at one window edge absorb genuine violations at the other."""
    return _RATE_SLACK * np.maximum(1.0, np.maximum(np.abs(ra), np.abs(rb)))


def check_hr(a, b, grid=None,
             direction: Direction = Direction.FIRST_SMALLER) -> OrderVerdict:
    """Hazard rate order: the smaller lifetime carries the larger hazard."""
    a, b, xs = _validate_pair(a, b, direction, grid, make_grid)
    ra, rb = system_hazard(a, xs), system_hazard(b, xs)
    return _dominance_verdict(Relation.HR, direction, xs, ra, rb, _rate_tol(ra, rb))


def check_rh(a, b, grid=None,
             direction: Direction = Direction.FIRST_GREATER) -> OrderVerdict:
    """Reversed hazard rate order: the larger lifetime carries the larger
    reversed hazard.  For parallel systems both sides are closed-form sums,
    making this check near exact."""
    a, b, xs = _validate_pair(a, b, direction, grid, make_grid)
    ra, rb = system_reversed_hazard(a, xs), system_reversed_hazard(b, xs)
    return _dominance_verdict(Relation.RH, direction, xs, rb, ra, _rate_tol(ra, rb))


def check_st(a, b, grid=None,
             direction: Direction = Direction.FIRST_SMALLER) -> OrderVerdict:
    """Usual stochastic order: the smaller lifetime has the pointwise larger cdf."""
    a, b, xs = _validate_pair(a, b, direction, grid, make_grid)
    return _dominance_verdict(Relation.ST, direction, xs, system_cdf(a, xs),
                              system_cdf(b, xs), _ST_SLACK)


def make_p_grid(count: int = DEFAULT_P_POINTS) -> np.ndarray:
    """Probability grid in [1e-6, 1 - 1e-6], geometrically refined toward both ends."""
    _check_count(count, 33, UsageError)
    half = count // 2
    left = np.geomspace(1e-6, 0.5, half + 1)[:half + count % 2]
    return np.concatenate([left, 1.0 - left[:half][::-1]])


def make_t_grid(a, b, count: int = DEFAULT_T_POINTS) -> np.ndarray:
    """Conditioning times valid for both laws.

    Runs from the earlier of the two 0.001 quantiles up to the earlier of
    the two 0.999 quantiles: past the shorter-lived system's upper
    quantile its residual entropy is no longer defined at quadrature
    precision, so the window must stop at the minimum.  A window the
    doubles cannot hold, or holding fewer than ``max(count, 2)`` distinct
    doubles, raises :class:`DomainError` (``systems._grid``).
    """
    _check_count(count, 1, UsageError)
    return _grid((a, b), 0.001, 0.999, count, hi_of=min)


def check_disp(a, b, p_grid=None,
               direction: Direction = Direction.FIRST_SMALLER) -> OrderVerdict:
    """Dispersive order, decided by the density-at-quantile criterion and
    cross-validated by quantile-spread monotonicity.

    For ``a`` less dispersed than ``b``, the density of ``b`` at its own
    p-quantile must not exceed the density of ``a`` at its p-quantile, and
    the quantile difference ``Q_b(p) - Q_a(p)`` must be nondecreasing in p,
    so ``p_grid`` must ascend.
    When the two criteria disagree the verdict is INCONCLUSIVE.  Series
    quantiles start from the memoised pass over ``make_grid(a, b)`` if any.
    """
    a, b, ps = _validate_pair(a, b, direction, p_grid, lambda *_: make_p_grid())
    try:
        grid = make_grid(a, b) if a.topology is Topology.SERIES else None
    except DomainError:
        grid = None
    (qa, fa), (qb, fb) = _quantiles_and_pdfs((a, b), ps, grid)
    _ascending(ps)  # the quantile spread's steps are read in grid order
    density = _dominance_verdict(Relation.DISP, direction, ps, fa, fb, _rate_tol(fa, fb))

    q_scale = max(1.0, float(np.abs(qa).max()), float(np.abs(qb).max()))
    steps = np.diff(qb - qa)
    spread_ok = bool((steps >= -_RATE_SLACK * q_scale).all())

    if density.holds == spread_ok:
        return density
    return OrderVerdict(Relation.DISP, direction, Outcome.INCONCLUSIVE, None,
                        density.margin)


def check_lu(a, b, t_grid=None, quad: QuadratureSpec = QuadratureSpec(),
             direction: Direction = Direction.FIRST_SMALLER) -> OrderVerdict:
    """Less-uncertainty order: residual entropy of the first law stays below
    that of the second at every conditioning time, within twice the combined
    quadrature tolerance.  Non-converged quadrature makes the verdict
    INCONCLUSIVE rather than pretending precision.  The default t grid is
    ``make_t_grid(a, b)``."""
    a, b, ts = _validate_pair(a, b, direction, t_grid, make_t_grid)
    forms = _residual_forms((a, b), ts, [_log_survival(s, ts) for s in (a, b)], quad)
    (va, ea, ca), (vb, eb, cb) = (_agreed(*f, quad) for f in forms)
    if not (ca.all() and cb.all()):
        return OrderVerdict(Relation.LU, direction, Outcome.INCONCLUSIVE, None, 0.0)
    tol = 2.0 * (ea + eb + quad.rel_tol * np.maximum(1.0, np.maximum(np.abs(va), np.abs(vb))))
    return _dominance_verdict(Relation.LU, direction, ts, vb, va, tol)


_CHECKS = {
    Relation.LR: check_lr,
    Relation.HR: check_hr,
    Relation.RH: check_rh,
    Relation.ST: check_st,
}


def check(relation: Relation, a, b, direction: Direction,
          grid=None, p_grid=None, t_grid=None,
          quad: QuadratureSpec = QuadratureSpec()) -> OrderVerdict:
    """Dispatch a single relation check with the grid appropriate to it."""
    if not isinstance(relation, Relation):
        raise UsageError(f"relation must be a Relation, got {relation!r}")
    if relation is Relation.DISP:
        return check_disp(a, b, p_grid=p_grid, direction=direction)
    if relation is Relation.LU:
        return check_lu(a, b, t_grid=t_grid, quad=quad, direction=direction)
    return _CHECKS[relation](a, b, grid=grid, direction=direction)


def parallel_rh_log_margin(a: SystemModel, b: SystemModel) -> float:
    """log(sum_i exp(mu_i/sigma)) difference between two parallel systems,
    ``(L_a - L_b)/sigma`` with ``L`` the location of the Gumbel law each
    system is.

    The reversed hazard of a parallel system factors as
    ``(exp(-x/sigma)/sigma) * sum_i exp(mu_i/sigma)``, so its ordering at any
    x is exactly the sign of this quantity.
    """
    _validate_pair(a, b)
    return (_location(a) - _location(b)) / a.sigma


# -- implication audit ---------------------------------------------------------

#: Pairs (upstream, downstream): upstream HOLDS while downstream FAILS is an
#: internal-consistency violation (it contradicts lr => hr, lr => rh,
#: hr => st, rh => st), i.e. a numerics bug, never a mathematical finding.
_IMPLICATIONS = (
    (Relation.LR, Relation.HR),
    (Relation.LR, Relation.RH),
    (Relation.HR, Relation.ST),
    (Relation.RH, Relation.ST),
)


@dataclass(frozen=True)
class AuditReport:
    verdicts: dict
    violations: tuple[str, ...]

    @property
    def consistent(self) -> bool:
        return not self.violations


def implication_audit(a, b, grid=None, p_grid=None, t_grid=None,
                      include_entropy_orders: bool = False,
                      quad: QuadratureSpec = QuadratureSpec()) -> AuditReport:
    """Run lr, hr, rh and st in both directions and flag verdict
    combinations that contradict the implication chain.

    When ``include_entropy_orders`` is set, disp and lu are checked as well,
    on ``p_grid`` and ``t_grid``.
    """
    a, b, grid = _validate_pair(a, b, grid=grid, default=make_grid)
    verdicts: dict = {}
    rels = tuple(Relation) if include_entropy_orders else tuple(_CHECKS)  # lr, hr, rh, st
    for direction in (Direction.FIRST_SMALLER, Direction.FIRST_GREATER):
        for rel in rels:
            verdicts[(rel, direction)] = check(rel, a, b, direction, grid=grid,
                                               p_grid=p_grid, t_grid=t_grid, quad=quad)

    violations: list[str] = []
    for direction in (Direction.FIRST_SMALLER, Direction.FIRST_GREATER):
        for up, down in _IMPLICATIONS:
            vu = verdicts[(up, direction)]
            vd = verdicts[(down, direction)]
            if vu.outcome is Outcome.HOLDS and vd.outcome is Outcome.FAILS:
                violations.append(
                    f"{up.value} holds but {down.value} fails "
                    f"({direction.value}); witness x={vd.witness.x!r}"
                )
    return AuditReport(verdicts=verdicts, violations=tuple(violations))
