"""A fixed piece of work that uses no program code, timed to gauge how fast
the machine runs at the moment.

On a shared host the CPU time of the same request drifts by a fifth from
minute to minute (the clock and the neighbours of a core change), which is
more than any run can average away. The benchmark times this kernel next to
every request and scales request CPU times by speed_factor() of the run's
kernel times, so that most of the drift cancels. The kernel does the kinds
of work the program's layers do: exact fraction arithmetic, dict and tuple
churn, and products and inverses of small numpy matrices. It never changes
with the program, so a faster program still reads faster.

numpy is imported on the first pass, not with this module, so that the
benchmark can pin the BLAS thread pools before numpy loads.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# Median kernel CPU time on the machine the benchmark was defined on (a
# 2-vCPU Xeon VM), so scaled times read as milliseconds on that machine.
NOMINAL_MS = 9.0

# Request CPU time follows the kernel's only in part: on that machine, in
# minutes when the kernel ran 1.4x faster, requests ran 1.15x (symbolic) to
# 1.33x (ambient-large) faster. Scaling by the full ratio over-corrected the
# symbolic runs; scaling by its square root gave the smallest spread of
# three 10-run sets per workload (at most 0.14 of the median, against 0.17
# unscaled and 0.19 at the full ratio).
SENSITIVITY = 0.5


def reference_ms() -> float:
    """CPU milliseconds of one pass of the kernel."""
    import numpy as np
    c0 = time.process_time()
    table = {}
    for i in range(1, 600):
        s = Fraction(i % 97, 1 + i % 13) * Fraction(7, 1 + i % 5) + Fraction(1, 3)
        key = (i % 61, s.denominator)
        table[key] = table.get(key, 0) + s.numerator
    m = np.eye(4) + np.arange(16.0).reshape(4, 4) / 64.0
    for _ in range(150):
        m = np.linalg.inv(m @ m.T + np.eye(4)) + np.eye(4)
    return (time.process_time() - c0) * 1e3


def speed_factor(kernel_ms) -> float:
    """Factor that takes CPU times measured alongside these kernel times to
    the nominal machine speed."""
    return (NOMINAL_MS / statistics.median(kernel_ms)) ** SENSITIVITY
