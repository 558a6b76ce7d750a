"""Reference seconds: operation times corrected for the speed of the host.

On a shared host the interpreter's speed drifts by tens of percent over
minutes. Each operation is therefore bracketed by short runs of a fixed
kernel, and its time is scaled by REF_KERNEL_S over the median kernel time
around it. A change in forestbound moves the operation's time and not the
kernel's, so it shows in full; a slower host slows both, and cancels.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

# Median speed_kernel() time on the reference host: a 2-core x86-64
# virtual machine, Python 3.11.7, with no other load from the benchmark.
REF_KERNEL_S = 0.0040
SAMPLES = 2  # kernel runs after each operation


def speed_kernel() -> int:
    """A fixed mix of the interpreter work forestbound does: small-int and
    big-int bit arithmetic, set inserts, Fractions and string splitting."""
    acc, seen, mask = 0, set(), 0
    for i in range(8000):
        seen.add(i * 7919 % 4093)
        acc += (i * i) % 13
        mask |= 1 << (i % 61)
        mask ^= mask >> 3
    acc += sum((Fraction(1, i) for i in range(1, 240)), Fraction(0)).denominator % 7
    acc += len(" ".join(map(str, range(6000))).split())
    return acc + len(seen) + mask % 5


def samples() -> list[float]:
    out = []
    for _ in range(SAMPLES):
        start = perf_counter()
        speed_kernel()
        out.append(perf_counter() - start)
    return out


def to_reference(seconds: float, before: list[float], after: list[float]) -> float:
    """Scale a measured time by the host speed sampled around it."""
    return seconds * REF_KERNEL_S / statistics.median(before + after)
