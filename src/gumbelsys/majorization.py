"""Random pairs of location vectors ordered by majorization.

``u`` majorizes ``v`` when, after sorting both in descending order, every
k-prefix sum of ``u`` dominates the one of ``v`` and the totals coincide.
(Some texts typeset the prefix inequality the other way around; this module
follows the standard convention, which is the one under which the sum of a
convex function of the coordinates is Schur-convex.)
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, _check_count

__all__ = ["random_majorization_pair"]


def random_majorization_pair(rng: np.random.Generator, n: int, spread: float = 1.0,
                             low: float = -3.0, high: float = 3.0,
                             ) -> tuple[np.ndarray, np.ndarray]:
    """Draw (u, v) with u majorizing v and u != v.

    Starts from a uniform v on [low, high]^n and applies 1..n reverse
    Robin Hood transfers: move mass from a smaller coordinate to a
    larger-or-equal one, which can only push the vector up the majorization
    preorder.  The transfer size is uniform in (0, spread * max(gap, 1)]
    where gap is the recipient-donor distance; the floor keeps tied
    coordinates transferable.
    """
    _check_count(n, 2, name="n")
    if not (spread > 0.0):
        raise DomainError(f"spread must be > 0, got {spread}")
    v = rng.uniform(low, high, n)
    u = v.copy()
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        for _ in range(int(rng.integers(1, n + 1))):
            i, j = rng.choice(n, size=2, replace=False)
            donor, recipient = (i, j) if u[i] <= u[j] else (j, i)
            gap = u[recipient] - u[donor]
            delta = spread * max(gap, 1.0) * (1.0 - rng.random())  # strictly positive
            u[recipient] += delta
            u[donor] -= delta
    if not np.all(np.isfinite(u)):
        raise DomainError(f"spread {spread} moves a location beyond the doubles")
    return np.sort(u)[::-1], np.sort(v)[::-1]
