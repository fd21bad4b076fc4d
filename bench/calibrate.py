"""Machine-speed reference: a fixed slice of Python and numpy work.

Runs as a helper process beside a workload process and never imports
gumbelsys, so no change to the program can change its timings.  For every
line read on stdin it runs two slices and writes the second one's wall time
back; the first, untimed, refills the caches, so that the footprint of the
operation that ran before does not leak into the reference.
The workload process asks for a slice between operations, so the median
slice time tracks how fast the host runs during the measured loop.
"""

from __future__ import annotations

import math
import sys
from time import perf_counter

import numpy as np

_X = np.linspace(-5.0, 5.0, 2049)


def work_slice() -> float:
    """Fixed work resembling the package's mix of scalar Python and array math."""
    s = 0.0
    for i in range(24000):
        s += math.log1p(math.exp(-1e-3 * i))
    for _ in range(240):
        s += float(np.log1p(np.exp(-np.abs(_X))).sum())
    return s


def main() -> int:
    for _ in sys.stdin:
        work_slice()  # untimed: refill the caches the workload's last operation used
        t0 = perf_counter()
        work_slice()
        sys.stdout.write(f"{perf_counter() - t0!r}\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
