"""Deterministic labeled random streams.

Every stochastic routine in the package draws from a generator obtained via
:func:`stream`, keyed by a single integer seed plus a tuple of string/int
labels.  Distinct labels yield statistically independent streams, and a
stream depends only on (seed, labels), never on how many other streams were
created.  This is what makes sampled estimates reproducible bit for bit and
keeps regression baselines stable when new substreams are added.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import _check_count

__all__ = ["stream", "open_uniform"]

_U53 = 1 << 53


def _label_entropy(label: object) -> int:
    """Map an arbitrary label to a stable 64-bit integer (hash-based, not
    dependent on PYTHONHASHSEED)."""
    digest = hashlib.sha256(repr(label).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def stream(seed: int, *labels: object) -> np.random.Generator:
    """Return the generator for the stream named by ``labels`` under ``seed``."""
    entropy = [int(seed)] + [_label_entropy(lab) for lab in labels]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def open_uniform(rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw ``n`` uniforms strictly inside (0, 1).

    Uses the half-integer lattice (k + 1/2) / 2^53 so that 0 and 1 are
    unreachable; inverse-transform sampling can then never hit a pole of the
    quantile function.
    """
    _check_count(n, 1, name="n")
    u = rng.integers(0, _U53, size=n).astype(np.float64)
    u += 0.5
    u /= _U53
    return u
