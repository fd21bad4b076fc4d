"""Lemma probes of the paper, for the tests: majorization checks, the
numerical Schur-convexity test and the audits of the lemma function phi.

Schur-convexity is tested through the gradient criterion: a symmetric,
continuously differentiable function is Schur-convex exactly when
``(z_i - z_j) * (df/dz_i - df/dz_j) >= 0`` for all pairs, and Schur-concave
for the reversed inequality.  Partials are central finite differences, so
the test is a numerical probe at a point, not a proof.  ``majorizes``
follows the convention of :mod:`gumbelsys.majorization`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

import numpy as np

from gumbelsys.errors import DomainError, UsageError
from gumbelsys.systems import phi

_PREFIX_SLACK = 1e-12
_TOTAL_SLACK = 1e-9
_SUM_CONVEX_SLACK = 1e-9
_FD_STEP = 1e-6
_SCHUR_SLACK = 1e-7
_SYMMETRY_SLACK = 1e-9


class Curvature(enum.Enum):
    CONVEX = "convex"
    CONCAVE = "concave"


@dataclass(frozen=True)
class MajorizationCheck:
    holds: bool
    reason: str | None
    total_gap: float
    min_prefix_slack: float


def _vector(v, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise UsageError(f"{name} must be a nonempty 1-d vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} must have finite entries, got {v!r}")
    return arr


def majorization_report(u, v) -> MajorizationCheck:
    """Full diagnostic for 'u majorizes v', distinguishing a totals mismatch
    from a prefix-dominance failure."""
    ua = _vector(u, "u")
    va = _vector(v, "v")
    if ua.size != va.size:
        raise UsageError(f"length mismatch: {ua.size} vs {va.size}")
    scale = 1.0 + max(float(np.abs(ua).max()), float(np.abs(va).max()))
    cu = np.cumsum(np.sort(ua)[::-1])
    cv = np.cumsum(np.sort(va)[::-1])
    total_gap = float(cu[-1] - cv[-1])
    prefix = cu[:-1] - cv[:-1]
    min_slack = float(prefix.min()) if prefix.size else 0.0
    if abs(total_gap) > _TOTAL_SLACK * scale:
        return MajorizationCheck(False, f"totals differ by {total_gap:.6g}",
                                 total_gap, min_slack)
    if prefix.size and min_slack < -_PREFIX_SLACK * scale:
        k = int(np.argmax(prefix < -_PREFIX_SLACK * scale)) + 1
        return MajorizationCheck(False, f"prefix dominance fails at k={k}",
                                 total_gap, min_slack)
    return MajorizationCheck(True, None, total_gap, min_slack)


def majorizes(u, v) -> bool:
    """True when u majorizes v (prefix dominance with equal totals)."""
    return majorization_report(u, v).holds


def schur_test(f: Callable[[np.ndarray], float], z, mode: Curvature) -> bool:
    """Gradient test for Schur-convexity (or concavity) of ``f`` at ``z``.

    ``f`` must be symmetric; this is spot-checked by re-evaluating it with
    the extreme coordinates transposed, and an asymmetric ``f`` is rejected
    as a usage error rather than reported as "not Schur-convex".
    """
    za = _vector(z, "z")
    if za.size < 2:
        raise UsageError("schur_test needs at least two coordinates")
    fz = float(f(za))
    if not np.isfinite(fz):
        raise ArithmeticError(f"f(z) is not finite: {fz}")

    swapped = za.copy()
    i_hi, i_lo = int(np.argmax(za)), int(np.argmin(za))
    if i_hi == i_lo:
        i_hi, i_lo = 0, 1
    swapped[i_hi], swapped[i_lo] = swapped[i_lo], swapped[i_hi]
    if abs(float(f(swapped)) - fz) > _SYMMETRY_SLACK * max(1.0, abs(fz)):
        raise UsageError("f does not look symmetric; the gradient criterion "
                         "only applies to symmetric functions")

    grad = np.empty(za.size)
    for i in range(za.size):
        h = _FD_STEP * max(1.0, abs(za[i]))
        zp = za.copy(); zp[i] += h
        zm = za.copy(); zm[i] -= h
        fp, fm = float(f(zp)), float(f(zm))
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise ArithmeticError("f produced non-finite values near z")
        grad[i] = (fp - fm) / (2.0 * h)

    slack = _SCHUR_SLACK * max(1.0, abs(fz))
    sign = 1.0 if mode is Curvature.CONVEX else -1.0
    for i in range(za.size):
        for j in range(i + 1, za.size):
            if sign * (za[i] - za[j]) * (grad[i] - grad[j]) < -slack:
                return False
    return True


@dataclass(frozen=True)
class PhiLemmaReport:
    """Numeric audit of convexity and monotonicity of t/(e^t - 1) on a grid."""

    min_second_difference: float
    max_first_difference: float
    convex_ok: bool
    decreasing_ok: bool

    @property
    def passed(self) -> bool:
        return self.convex_ok and self.decreasing_ok


def check_lemma_phi(t_grid) -> PhiLemmaReport:
    """Check on a positive grid that phi(t) = t/(e^t - 1) is convex
    (second differences >= -1e-9) and nonincreasing
    (first differences <= 1e-12).

    The second difference is spacing-aware: it measures how far each interior
    value sits below the chord of its neighbours, scaled so that on a uniform
    grid it reduces to the plain central second difference.
    """
    ts = _vector(t_grid, "t_grid")
    if np.any(ts <= 0.0) or not np.all(np.diff(ts) > 0.0):
        raise DomainError("t_grid must be positive and strictly increasing")
    vals = phi(ts)
    first = np.diff(vals)
    h_lo = ts[1:-1] - ts[:-2]
    h_hi = ts[2:] - ts[1:-1]
    chord_excess = (h_lo * vals[2:] + h_hi * vals[:-2]
                    - (h_lo + h_hi) * vals[1:-1])
    second = 2.0 * chord_excess / (h_lo + h_hi)
    return PhiLemmaReport(
        min_second_difference=float(second.min()),
        max_first_difference=float(first.max()),
        convex_ok=bool(second.min() >= -1e-9),
        decreasing_ok=bool(first.max() <= 1e-12),
    )


def check_lemma_sum_convex(gamma: Callable[[np.ndarray], np.ndarray], u, v) -> bool:
    """Verify sum(gamma(u_i)) >= sum(gamma(v_i)) for a majorization pair.

    This is the defining consequence of Schur-convexity of coordinate sums
    of a convex function; the precondition that u majorizes v is enforced.
    """
    if not majorizes(u, v):
        raise UsageError("precondition failed: u does not majorize v")
    hu = float(np.sum(gamma(np.asarray(u, dtype=float))))
    hv = float(np.sum(gamma(np.asarray(v, dtype=float))))
    scale = max(1.0, abs(hu), abs(hv))
    return hu >= hv - _SUM_CONVEX_SLACK * scale
