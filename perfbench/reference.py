"""A fixed reference computation that measures how fast the host runs now.

The benchmark runs on shared hosts whose speed drifts by up to 2x within
minutes, with no steal time reported, so process time drifts just as wall
time does. Every op is therefore paired with one run of ``kernel()``, timed
right before it. The kernel is the benchmark's own code, never mmskit's, and
does the same kind of work as mmskit's exact searches: Fraction arithmetic,
recursion, sorting and set lookups. A change to mmskit cannot change its
time; a change in host speed changes both.

``scale(ns)`` turns the kernel times around an op into a factor that maps
the op's measured time to the time it would take on a host that runs the
kernel in ``NOMINAL_NS``.
"""

from __future__ import annotations

import statistics
from fractions import Fraction

# The kernel's time on a 2-vCPU Xeon VM in a quiet period, rounded. Only the
# unit of the normalised times depends on it, not their ratios.
NOMINAL_NS = 1_000_000
# Kernel samples on each side of an op that its speed factor is taken from.
WINDOW = 4

_VALUES = tuple(Fraction(37 * i % 101 + 1, i % 7 + 1) for i in range(1, 10))


def _best_split(values: tuple[Fraction, ...], d: int) -> Fraction:
    """Largest minimum part over splits of ``values`` into ``d`` parts,
    by depth-first search with a total-based bound."""
    total = sum(values, Fraction(0))
    best = [Fraction(0)]
    sums = [Fraction(0)] * d

    def place(k: int, remaining: Fraction) -> None:
        if k == len(values):
            best[0] = max(best[0], min(sums))
            return
        if (min(sums) + remaining) <= best[0] or total / d <= best[0]:
            return
        tried: set[Fraction] = set()
        for j in sorted(range(d), key=sums.__getitem__):
            if sums[j] in tried:
                continue
            tried.add(sums[j])
            sums[j] += values[k]
            place(k + 1, remaining - values[k])
            sums[j] -= values[k]

    place(0, total)
    return best[0]


def kernel() -> Fraction:
    """The fixed unit of work; always returns the same value."""
    return _best_split(tuple(sorted(_VALUES, reverse=True)), 3)


def scale(kernel_ns: list[int], k: int) -> float:
    """Speed factor for op ``k``: ``NOMINAL_NS`` over the median kernel time
    of the samples within ``WINDOW`` ops of it."""
    lo = max(0, k - WINDOW)
    return NOMINAL_NS / statistics.median(kernel_ns[lo:k + WINDOW + 1])
