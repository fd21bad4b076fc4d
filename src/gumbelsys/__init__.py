"""Series/parallel Gumbel system lifetimes and stochastic-order verification.

The package models the lifetime of a system of independent Gumbel-distributed
components sharing one scale parameter, in series (min) or parallel (max)
arrangement, and numerically audits ordering relations between two such
systems: likelihood ratio, hazard rate, reversed hazard rate, usual
stochastic, dispersive and less-uncertainty order.  Random majorization
pairs, entropy integrals and a Monte Carlo cross-validation oracle round out
the toolkit; the ``gumbelsys`` CLI drives it from flat spec files.
"""

from .entropy import (EntropyValue, QuadratureSpec, entropy_curve,
                      residual_entropy, shannon_entropy)
from .errors import DomainError, GumbelSysError, UsageError
from .majorization import random_majorization_pair
from .orders import (AuditReport, Direction, Outcome, OrderVerdict, Relation,
                     Witness, check, check_disp, check_hr, check_lr, check_lu,
                     check_rh, check_st, implication_audit, make_p_grid,
                     make_t_grid, parallel_rh_log_margin)
from .simulate import (DominanceScan, McEstimate, empirical_cdf_dominance,
                       empirical_quantile_spread, sample_pair, sample_system)
from .systems import (SystemModel, Topology, make_grid, phi, system_cdf, system_hazard,
                      system_pdf, system_quantiles,
                      system_reversed_hazard, system_survival)

__version__ = "0.1.0"

__all__ = [
    "DomainError", "GumbelSysError", "UsageError",
    "SystemModel", "Topology", "make_grid", "phi",
    "system_cdf", "system_hazard", "system_pdf",
    "system_quantiles", "system_reversed_hazard", "system_survival",
    "random_majorization_pair",
    "AuditReport", "Direction", "Outcome", "OrderVerdict", "Relation",
    "Witness", "check", "check_disp", "check_hr", "check_lr", "check_lu",
    "check_rh", "check_st", "implication_audit",
    "make_p_grid", "make_t_grid", "parallel_rh_log_margin",
    "EntropyValue", "QuadratureSpec", "entropy_curve", "residual_entropy",
    "shannon_entropy",
    "DominanceScan", "McEstimate", "empirical_cdf_dominance",
    "empirical_quantile_spread", "sample_pair", "sample_system",
]
