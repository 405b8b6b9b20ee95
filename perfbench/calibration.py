"""Fixed calibration kernel that measures the machine's current speed.

The host's speed drifts by tens of percent between processes and within
one, for identical work.  The benchmark times this kernel next to every
block of workload work and reports throughput rescaled to a reference
machine, on which the kernel takes ``REFERENCE_SECONDS``.

The kernel mixes the two kinds of work a trial does: Python-int bitset
row reduction (as in ``gf2``) and small NumPy array passes (as in the
channel and the search blocks).  It imports nothing from ``rlcgrand``, so
a change to the program cannot change the yardstick.
"""

from __future__ import annotations

import time

import numpy as np

# Median kernel time on the machine the benchmark was defined on
# (2-core Intel Xeon VM, Python 3.11.7, NumPy 2.4.6).
REFERENCE_SECONDS = 0.1

_ROUNDS = 150
_ROWS = 400
_NUMPY_PASSES = 40
# The kernel's result; a different value means the kernel was edited
# and REFERENCE_SECONDS no longer applies.
CHECKSUM = 192130


def kernel() -> int:
    """Run the fixed work once and return its checksum."""
    acc = 0
    x = 0x9E3779B97F4A7C15
    state = np.arange(64, dtype=np.uint64)
    for _ in range(_ROUNDS):
        pivots: dict[int, int] = {}
        for _ in range(_ROWS):
            x = (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
            v = x >> 44
            while v:
                top = v.bit_length() - 1
                p = pivots.get(top)
                if p is None:
                    pivots[top] = v
                    break
                v ^= p
        acc += len(pivots)
        for _ in range(_NUMPY_PASSES):
            state = (state ^ (state >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
            acc += int(np.count_nonzero(state >> np.uint64(63)))
    return acc


def timed_kernel() -> float:
    """Seconds one kernel run takes; raises if the kernel's result changed."""
    t0 = time.perf_counter()
    result = kernel()
    elapsed = time.perf_counter() - t0
    if result != CHECKSUM:
        raise RuntimeError(f"calibration kernel checksum {result} != {CHECKSUM}")
    return elapsed
