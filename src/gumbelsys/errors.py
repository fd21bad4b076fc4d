"""Semantic exception hierarchy for the package."""

from __future__ import annotations

import numbers

__all__ = ["GumbelSysError", "DomainError", "UsageError"]


class GumbelSysError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(GumbelSysError, ValueError):
    """A numeric input lies outside the mathematical domain of an operation.

    Examples: non-finite abscissa, probability outside (0, 1), negative
    argument to a nonnegative-domain function, conditioning time past the
    representable upper tail.
    """


class UsageError(GumbelSysError, ValueError):
    """A structural misuse of the API.

    Examples: topology mismatch between a system and an operation, unequal
    scale parameters in a two-system comparison, vector length mismatch,
    a non-symmetric function passed where symmetry is required.
    """


def _check_count(value, low: int, error: type = DomainError, name: str = "count") -> None:
    """Raise ``error`` naming ``name`` unless ``value`` is an integer (a Python
    or numpy one, not a bool) of at least ``low``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{name} must be an integer >= {low}, got {value!r}")
    if value < low:
        raise error(f"{name} must be >= {low}, got {value}")
