"""Host-speed reference: a fixed kernel timed next to every timed interval.

The 2-vCPU host this benchmark was written on changes speed by up to 60 %
in phases of a few seconds to a minute, and the process's CPU time moves
with its wall time (README.md, Steadiness).  A run's median wall time
therefore depends on how much of the run fell into slow phases.  So each
timed interval is bracketed by this kernel, which does the same work every
time and runs no momentct code, and reported in reference seconds:

    wall seconds * REFERENCE_S / mean(kernel seconds before, after)

that is, the seconds the interval would take on a host where the kernel
takes REFERENCE_S.  A change to the program moves reference seconds by the
same share as wall seconds; a drift of the host moves both the interval and
the kernel, and largely cancels.
"""

from __future__ import annotations

import time

import numpy as np

#: The kernel's typical duration on the host the benchmark was written on
#: (2-vCPU x86_64 VM, Python 3.11, numpy 2.4, one thread); a constant, so
#: that reference seconds compare across runs and commits.
REFERENCE_S = 0.040

#: Iterations of the interpreted loop.
_LOOP = 40_000
#: Length and passes of the array that stays in the L2 cache.
_SMALL, _SMALL_PASSES = 100_000, 6
#: Length and passes of the array that is allocated afresh each pass and is
#: larger than the L2 cache, so that it pays page faults and L3 traffic.
_BIG, _BIG_PASSES = 1_000_000, 6


def kernel_seconds() -> float:
    """Time one pass of the kernel.

    It does the three kinds of work the pipeline's time goes to:
    interpreted Python, numpy on cache-resident arrays, and numpy on large
    fresh arrays.  The large array is updated in place, so the kernel adds
    8 MB at most to the process's peak memory, below every workload's own
    peak.
    """
    small = np.linspace(0.0, 1.0, _SMALL)
    start = time.perf_counter()
    acc = 0
    for i in range(_LOOP):
        acc += i * i % 7
    total = 0.0
    for _ in range(_SMALL_PASSES):
        total += float((np.cos(np.sqrt(small * small + 1.0)) * small).sum())
    for _ in range(_BIG_PASSES):
        big = np.linspace(0.0, 1.0, _BIG)
        np.multiply(big, big, out=big)
        big += 1.0
        np.sqrt(big, out=big)
        total += float(big.sum())
        del big
    return time.perf_counter() - start


def to_reference(seconds: float, before: float, after: float) -> float:
    """Wall seconds bracketed by kernel times `before` and `after`, in
    reference seconds."""
    return seconds * REFERENCE_S / (0.5 * (before + after))
