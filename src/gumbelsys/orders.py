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
  unrepresentable densities for lr, disagreeing dual criteria for disp, or
  non-converged quadrature for lu.

Direction conventions follow the usual definitions.  With ``a`` the first
argument and ``b`` the second, ``FIRST_SMALLER`` verifies ``a <= b`` in the
given order, e.g. hr: hazard of ``a`` dominates hazard of ``b`` pointwise;
``FIRST_GREATER`` verifies the mirror image.  The lr check works on log
densities, never on raw ratios, because tail underflow would fabricate
non-monotonicity.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .entropy import QuadratureSpec, residual_entropy
from .errors import DomainError, NumericsError, UsageError
from .systems import EvalGrid, SystemModel, as_law, logsumexp

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
    "is_dhr",
    "is_irhr",
    "parallel_rh_log_margin",
    "implication_audit",
]

DEFAULT_X_POINTS = 2049
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

    def flipped(self) -> "Direction":
        return (Direction.FIRST_SMALLER if self is Direction.FIRST_GREATER
                else Direction.FIRST_GREATER)


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


def _validate_pair(a, b) -> None:
    if isinstance(a, SystemModel) and isinstance(b, SystemModel):
        if a.topology is not b.topology:
            raise UsageError(
                f"cannot compare {a.topology.value} with {b.topology.value} system")
        if a.sigma != b.sigma:
            raise UsageError(
                f"systems must share the scale parameter, got {a.sigma} and {b.sigma}")


def _law_window(a, b, lo_prob: float, hi_prob: float, count: int) -> np.ndarray:
    la, lb = as_law(a), as_law(b)
    lo = min(float(la.quantiles(lo_prob)), float(lb.quantiles(lo_prob)))
    hi = max(float(la.quantiles(hi_prob)), float(lb.quantiles(hi_prob)))
    return np.linspace(lo, hi, count)


def _xs(a, b, grid: EvalGrid | None) -> np.ndarray:
    if grid is None:
        return _law_window(a, b, 1e-8, 1.0 - 1e-8, DEFAULT_X_POINTS)
    return grid.points if isinstance(grid, EvalGrid) else np.asarray(grid, dtype=float)


def _dominance_verdict(relation: Relation, direction: Direction, xs: np.ndarray,
                       lhs: np.ndarray, rhs: np.ndarray, tol) -> OrderVerdict:
    """HOLDS iff lhs >= rhs - tol at every point; margin is min(lhs - rhs)."""
    lhs = np.asarray(lhs, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if not (np.all(np.isfinite(lhs)) and np.all(np.isfinite(rhs))):
        raise NumericsError(f"{relation.value} check produced non-finite values")
    diff = lhs - rhs
    margin = float(diff.min())
    bad = diff < -np.asarray(tol)
    if not bad.any():
        return OrderVerdict(relation, direction, Outcome.HOLDS, None, margin)
    k = int(np.argmax(bad))
    wit = Witness(x=float(xs[k]), lhs=float(lhs[k]), rhs=float(rhs[k]))
    return OrderVerdict(relation, direction, Outcome.FAILS, wit, margin)


def check_lr(a, b, grid: EvalGrid | None = None,
             direction: Direction = Direction.FIRST_SMALLER) -> OrderVerdict:
    """Likelihood ratio order: the log-density difference of the dominating
    law over the dominated one must be nondecreasing across the grid."""
    _validate_pair(a, b)
    xs = _xs(a, b, grid)
    la, lb = as_law(a), as_law(b)
    da = np.asarray(la.log_pdf(xs), dtype=float)
    db = np.asarray(lb.log_pdf(xs), dtype=float)
    with np.errstate(invalid="ignore"):
        d = (da - db) if direction is Direction.FIRST_GREATER else (db - da)

    finite = np.isfinite(d)
    if finite.mean() < _LR_FINITE_FRACTION:
        # too many unrepresentable densities to trust a monotonicity scan
        return OrderVerdict(Relation.LR, direction, Outcome.INCONCLUSIVE, None, 0.0)
    dk = d[finite]
    xk = xs[finite]
    steps = np.diff(dk)
    margin = float(steps.min()) if steps.size else 0.0
    bad = steps < -_LR_STEP_SLACK
    if not bad.any():
        return OrderVerdict(Relation.LR, direction, Outcome.HOLDS, None, margin)
    k = int(np.argmax(bad))
    wit = Witness(x=float(xk[k + 1]), lhs=float(dk[k + 1]), rhs=float(dk[k]))
    return OrderVerdict(Relation.LR, direction, Outcome.FAILS, wit, margin)


def _rate_tol(ra: np.ndarray, rb: np.ndarray) -> np.ndarray:
    """Pointwise slack for rate comparisons: relative to the local magnitude
    with an absolute floor.  A single global scale would let the huge values
    at one window edge absorb genuine violations at the other."""
    return _RATE_SLACK * np.maximum(1.0, np.maximum(np.abs(ra), np.abs(rb)))


def check_hr(a, b, grid: EvalGrid | None = None,
             direction: Direction = Direction.FIRST_SMALLER) -> OrderVerdict:
    """Hazard rate order: the smaller lifetime carries the larger hazard."""
    _validate_pair(a, b)
    xs = _xs(a, b, grid)
    ra = np.asarray(as_law(a).hazard(xs), dtype=float)
    rb = np.asarray(as_law(b).hazard(xs), dtype=float)
    tol = _rate_tol(ra, rb)
    if direction is Direction.FIRST_SMALLER:
        return _dominance_verdict(Relation.HR, direction, xs, ra, rb, tol)
    return _dominance_verdict(Relation.HR, direction, xs, rb, ra, tol)


def check_rh(a, b, grid: EvalGrid | None = None,
             direction: Direction = Direction.FIRST_GREATER) -> OrderVerdict:
    """Reversed hazard rate order: the larger lifetime carries the larger
    reversed hazard.  For parallel systems both sides are closed-form sums,
    making this check near exact."""
    _validate_pair(a, b)
    xs = _xs(a, b, grid)
    ra = np.asarray(as_law(a).reversed_hazard(xs), dtype=float)
    rb = np.asarray(as_law(b).reversed_hazard(xs), dtype=float)
    tol = _rate_tol(ra, rb)
    if direction is Direction.FIRST_GREATER:
        return _dominance_verdict(Relation.RH, direction, xs, ra, rb, tol)
    return _dominance_verdict(Relation.RH, direction, xs, rb, ra, tol)


def check_st(a, b, grid: EvalGrid | None = None,
             direction: Direction = Direction.FIRST_SMALLER) -> OrderVerdict:
    """Usual stochastic order: the smaller lifetime has the pointwise larger cdf."""
    _validate_pair(a, b)
    xs = _xs(a, b, grid)
    fa = np.asarray(as_law(a).cdf(xs), dtype=float)
    fb = np.asarray(as_law(b).cdf(xs), dtype=float)
    if direction is Direction.FIRST_SMALLER:
        return _dominance_verdict(Relation.ST, direction, xs, fa, fb, _ST_SLACK)
    return _dominance_verdict(Relation.ST, direction, xs, fb, fa, _ST_SLACK)


def make_p_grid(count: int = DEFAULT_P_POINTS, edge: float = 1e-6) -> np.ndarray:
    """Probability grid in (0, 1), geometrically refined toward both endpoints."""
    if count < 33:
        raise UsageError(f"count must be >= 33, got {count}")
    if not (0.0 < edge < 0.5):
        raise DomainError(f"edge must lie in (0, 0.5), got {edge}")
    half = count // 2
    if count % 2:
        left = np.geomspace(edge, 0.5, half + 1)
        right = 1.0 - left[:-1][::-1]
    else:
        left = np.geomspace(edge, 0.5, half + 1)[:-1]
        right = 1.0 - left[::-1]
    return np.concatenate([left, right])


def make_t_grid(a, b, count: int = DEFAULT_T_POINTS,
                tail_prob: float = 0.001) -> np.ndarray:
    """Conditioning times valid for both laws.

    Runs from the earlier of the two lower-tail quantiles up to the earlier
    of the two upper-tail quantiles: past the shorter-lived system's upper
    quantile its residual entropy is no longer defined at quadrature
    precision, so the window must stop at the minimum.
    """
    la, lb = as_law(a), as_law(b)
    lo = min(float(la.quantiles(tail_prob)), float(lb.quantiles(tail_prob)))
    hi = min(float(la.quantiles(1.0 - tail_prob)), float(lb.quantiles(1.0 - tail_prob)))
    return np.linspace(lo, hi, count)


def check_disp(a, b, p_grid=None,
               direction: Direction = Direction.FIRST_SMALLER) -> OrderVerdict:
    """Dispersive order, decided by the density-at-quantile criterion and
    cross-validated by quantile-spread monotonicity.

    For ``a`` less dispersed than ``b``, the density of ``b`` at its own
    p-quantile must not exceed the density of ``a`` at its p-quantile, and
    the quantile difference ``Q_b(p) - Q_a(p)`` must be nondecreasing in p.
    When the two criteria disagree the verdict is INCONCLUSIVE.
    """
    _validate_pair(a, b)
    ps = make_p_grid() if p_grid is None else np.asarray(p_grid, dtype=float)
    if np.any(ps <= 0.0) or np.any(ps >= 1.0):
        raise DomainError("p grid must lie strictly inside (0, 1)")
    la, lb = as_law(a), as_law(b)
    qa = np.asarray(la.quantiles(ps), dtype=float)
    qb = np.asarray(lb.quantiles(ps), dtype=float)
    fa = np.asarray(la.pdf(qa), dtype=float)
    fb = np.asarray(lb.pdf(qb), dtype=float)

    if direction is Direction.FIRST_SMALLER:
        lhs, rhs = fa, fb
        spread = qb - qa
    else:
        lhs, rhs = fb, fa
        spread = qa - qb

    density = _dominance_verdict(Relation.DISP, direction, ps, lhs, rhs,
                                 _rate_tol(fa, fb))

    q_scale = max(1.0, float(np.abs(qa).max()), float(np.abs(qb).max()))
    steps = np.diff(spread)
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
    INCONCLUSIVE rather than pretending precision."""
    _validate_pair(a, b)
    ts = make_t_grid(a, b) if t_grid is None else np.asarray(t_grid, dtype=float)
    ha = residual_entropy(a, ts, quad)
    hb = residual_entropy(b, ts, quad)
    if not all(v.converged for v in ha + hb):
        return OrderVerdict(Relation.LU, direction, Outcome.INCONCLUSIVE, None, 0.0)
    va = np.array([v.value for v in ha])
    vb = np.array([v.value for v in hb])
    errs = np.array([x.error_estimate + y.error_estimate for x, y in zip(ha, hb)])
    tol = 2.0 * (errs + quad.rel_tol * np.maximum(1.0, np.maximum(np.abs(va), np.abs(vb))))
    if direction is Direction.FIRST_SMALLER:
        return _dominance_verdict(Relation.LU, direction, ts, vb, va, tol)
    return _dominance_verdict(Relation.LU, direction, ts, va, vb, tol)


_CHECKS = {
    Relation.LR: check_lr,
    Relation.HR: check_hr,
    Relation.RH: check_rh,
    Relation.ST: check_st,
}


def check(relation: Relation, a, b, direction: Direction,
          grid: EvalGrid | None = None, p_grid=None, t_grid=None,
          quad: QuadratureSpec = QuadratureSpec()) -> OrderVerdict:
    """Dispatch a single relation check with the grid appropriate to it."""
    if relation is Relation.DISP:
        return check_disp(a, b, p_grid=p_grid, direction=direction)
    if relation is Relation.LU:
        return check_lu(a, b, t_grid=t_grid, quad=quad, direction=direction)
    return _CHECKS[relation](a, b, grid=grid, direction=direction)


def is_dhr(s, grid) -> bool:
    """True when the hazard is nonincreasing in time across the grid."""
    xs = grid.points if isinstance(grid, EvalGrid) else np.asarray(grid, dtype=float)
    r = np.asarray(as_law(s).hazard(xs), dtype=float)
    tol = _rate_tol(r[:-1], r[1:])
    return bool((np.diff(r) <= tol).all())


def is_irhr(s, grid) -> bool:
    """True when the reversed hazard is nondecreasing in time across the grid."""
    xs = grid.points if isinstance(grid, EvalGrid) else np.asarray(grid, dtype=float)
    r = np.asarray(as_law(s).reversed_hazard(xs), dtype=float)
    tol = _rate_tol(r[:-1], r[1:])
    return bool((np.diff(r) >= -tol).all())


def parallel_rh_log_margin(a: SystemModel, b: SystemModel) -> float:
    """log(sum_i exp(mu_i/sigma)) difference between two parallel systems.

    The reversed hazard of a parallel system factors as
    ``(exp(-x/sigma)/sigma) * sum_i exp(mu_i/sigma)``, so its ordering at any
    x is exactly the sign of this quantity.
    """
    _validate_pair(a, b)
    return float(logsumexp(np.asarray(a.mus) / a.sigma)
                 - logsumexp(np.asarray(b.mus) / b.sigma))


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


def implication_audit(a, b, grid: EvalGrid | None = None,
                      relations: tuple[Relation, ...] = (Relation.LR, Relation.HR,
                                                         Relation.RH, Relation.ST),
                      include_entropy_orders: bool = False,
                      quad: QuadratureSpec = QuadratureSpec()) -> AuditReport:
    """Run the requested checks in both directions and flag verdict
    combinations that contradict the implication chain.

    When ``include_entropy_orders`` is set, disp and lu are checked as well
    and the audit additionally enforces the classical consequence of hazard
    dominance for a DHR law: hr HOLDS plus either law DHR must not coexist
    with a disp or lu FAILS in the same direction.
    """
    if grid is None:
        grid = _xs(a, b, None)
    verdicts: dict = {}
    rels = tuple(relations)
    if include_entropy_orders:
        rels = rels + (Relation.DISP, Relation.LU)
    for direction in (Direction.FIRST_SMALLER, Direction.FIRST_GREATER):
        for rel in rels:
            verdicts[(rel, direction)] = check(rel, a, b, direction, grid=grid,
                                               quad=quad)

    violations: list[str] = []
    for direction in (Direction.FIRST_SMALLER, Direction.FIRST_GREATER):
        for up, down in _IMPLICATIONS:
            vu = verdicts.get((up, direction))
            vd = verdicts.get((down, direction))
            if vu is None or vd is None:
                continue
            if vu.outcome is Outcome.HOLDS and vd.outcome is Outcome.FAILS:
                violations.append(
                    f"{up.value} holds but {down.value} fails "
                    f"({direction.value}); witness x={vd.witness.x!r}"
                )
        if include_entropy_orders:
            vh = verdicts.get((Relation.HR, direction))
            if vh is not None and vh.outcome is Outcome.HOLDS:
                dhr = is_dhr(a, grid) or is_dhr(b, grid)
                for rel in (Relation.DISP, Relation.LU):
                    vd = verdicts.get((rel, direction))
                    if dhr and vd is not None and vd.outcome is Outcome.FAILS:
                        violations.append(
                            f"hr holds with a DHR law but {rel.value} fails "
                            f"({direction.value})"
                        )
    return AuditReport(verdicts=verdicts, violations=tuple(violations))
