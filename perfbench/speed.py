"""A fixed reference kernel that measures how fast the host runs right now.

On a shared host the CPU's speed changes by up to 2x over seconds to
minutes, as other tenants load it. The benchmark runs this kernel between
the parts of every timed pass and scales the pass's wall time by
REFERENCE_S / (the kernel's median time in that pass), so a pass is
reported at the host speed at which the kernel takes REFERENCE_S. The
kernel uses no irsfleet code and fixed inputs, so a change to the program
cannot move it. It mixes the two kinds of work the program does: numpy
operations on small arrays, as the matching solvers make, and an
interpreted Python loop.
"""

import time

import numpy as np

# Close to the kernel's median time on the 2-vCPU Xeon VM the baseline was
# recorded on, so scaled times read close to that host's raw seconds.
REFERENCE_S = 0.010
_COSTS = list(np.random.default_rng(0).random((50, 12, 12)))


def kernel_s() -> float:
    """Wall time of one run of the reference kernel (~10 ms)."""
    start = time.perf_counter()
    for _ in range(4):
        for cost in _COSTS:
            rows = cost - cost.min(axis=1, keepdims=True)
            reduced = rows - rows.min(axis=0)
            np.argmin(reduced, axis=1)
            np.where(reduced < 0.1, reduced, 1.0).sum()
        total = 0
        for i in range(20_000):
            total += i * i
    return time.perf_counter() - start
