"""The reference work that normalizes the benchmark's times.

It imports nothing but `time`, so a fresh interpreter can measure its speed
before `import predim` without importing anything predim imports (see
run.import_seconds).
"""

from __future__ import annotations

import time

# Reference work for normalizing times: fixed set, sort and tuple work in
# the style of predim's own code, but none of its code, so a change to predim
# cannot change it.  REFERENCE_S is its time at the speed the normalized
# times are quoted at, for REFERENCE_ITERATIONS iterations.
REFERENCE_S = 0.015
REFERENCE_ITERATIONS = 3000


def reference_work(iterations: int = REFERENCE_ITERATIONS) -> int:
    base = list(range(40))
    out = 0
    for i in range(iterations):
        a = frozenset(base[i % 13: i % 13 + 9])
        b = frozenset(base[i % 7: i % 7 + 11])
        out += len(sorted(a | b)) + len(a & b)
        out += hash(tuple(sorted(a ^ b))) & 1
    return out


def speed_factor(iterations: int = REFERENCE_ITERATIONS) -> float:
    """The reference work's time at the reference speed over its time now:
    below 1 when the machine runs slower than the reference speed."""
    start = time.perf_counter()
    reference_work(iterations)
    reference = REFERENCE_S * iterations / REFERENCE_ITERATIONS
    return reference / (time.perf_counter() - start)
