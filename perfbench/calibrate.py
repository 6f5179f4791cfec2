"""A fixed pure-Python reference task that tells how fast the machine runs
Python right now.

On a shared machine other tenants slow a CPU-bound Python process by up to
1.5-2x for tens of seconds at a time, and the fastest of a run's
repetitions rises with them.  Each repetition therefore also times this
task, which uses none of treespectra, in the same process after its
checks, and run.py scales the run's timings by how much slower the task
ran than REFERENCE_S.  Both rise together
under load, so their ratio moves with the program and not with the
neighbours.

Never change this file's task or REFERENCE_S: numbers measured before and
after such a change are not comparable.
"""

from __future__ import annotations

import gc
import time
from math import gcd

# Chunks timed per repetition, and the sum over chunks of each
# chunk's fastest time in a run on a quiet 2-vCPU x86-64 VM (Intel Xeon,
# CPython 3.11.7).  run.py divides timings by (that sum in the run) /
# REFERENCE_S.
CHUNKS = 200
REFERENCE_S = 0.031


def chunk() -> int:
    """About 2 ms of the operations treespectra's hot paths are made of:
    big-integer products and sums, gcds, tuple building and slicing,
    comparisons and small function calls."""
    a = tuple((i * 7919) ** 5 % 1000000007 + 1 for i in range(24))
    b = tuple((i * 104729) ** 3 % 998244353 + 1 for i in range(16))
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    g = 0
    for c in prod:
        g = gcd(g, c)
    rem = list(prod)
    lead = b[-1]
    while len(rem) >= len(b):  # pseudo-remainder by b, as in a Sturm chain
        q = rem[-1]
        shift = len(rem) - len(b)
        rem = [lead * r for r in rem]
        for k, y in enumerate(b):
            rem[shift + k] -= q * y
        rem = _strip(rem[:-1])
    return g + len(rem) + sum(c % 97 for c in rem)


def _strip(coeffs: list) -> list:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def chunk_times(count: int = CHUNKS) -> list:
    """Wall time of each of ``count`` back-to-back chunks, with the cyclic
    garbage collector off so the caller's heap does not enter the time."""
    times = []
    gc.disable()
    try:
        for _ in range(count):
            t0 = time.perf_counter()
            chunk()
            times.append(time.perf_counter() - t0)
    finally:
        gc.enable()
    return times
