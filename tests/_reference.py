"""Independent share references that the tests compare ``oracle.mms`` against.

Neither reads ``Instance.scaled``, the oracle's integer kernel: ``mms_naive``
adds the Fractions of the ``Instance.valuations`` view, and ``dp_share``
scales that view to ints itself.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable

from mmskit import InputError, Instance, MmsResult, Partition
from mmskit.core import check_int
from mmskit.oracle import MAX_PARTS

NAIVE_GOODS_CAP = 12


def mms_naive(
    inst: Instance,
    agent: int,
    d: int,
    goods: Iterable[int] | None = None,
) -> MmsResult:
    """Reference enumerator over all set partitions into at most d blocks.

    Capped at ``NAIVE_GOODS_CAP`` goods.
    """
    check_int("d", d, 1, MAX_PARTS)
    inst.check_agent(agent)
    good_list = list(range(inst.num_goods)) if goods is None else sorted(inst.check_goods(goods))
    if len(good_list) > NAIVE_GOODS_CAP:
        raise InputError(
            f"mms_naive is capped at {NAIVE_GOODS_CAP} goods, got {len(good_list)}"
        )
    K = len(good_list)
    vals = [inst.valuations[agent][g] for g in good_list]

    best_value = Fraction(-1)
    best_blocks: list[list[int]] = []
    block_sums: list[Fraction] = []
    block_items: list[list[int]] = []

    def rec(t: int) -> None:
        nonlocal best_value, best_blocks
        if t == K:
            if len(block_sums) == d:
                m = min(block_sums)
            else:
                m = Fraction(0)  # some of the d parts stays empty
            if m > best_value:
                best_value = m
                best_blocks = [list(b) for b in block_items]
            return
        for j in range(len(block_sums)):
            block_sums[j] += vals[t]
            block_items[j].append(t)
            rec(t + 1)
            block_items[j].pop()
            block_sums[j] -= vals[t]
        if len(block_sums) < d:
            block_sums.append(vals[t])
            block_items.append([t])
            rec(t + 1)
            block_items.pop()
            block_sums.pop()

    if K == 0:
        return MmsResult(Fraction(0), Partition((frozenset(),) * d))
    rec(0)
    parts = [frozenset(good_list[t] for t in block) for block in best_blocks]
    parts += [frozenset()] * (d - len(parts))
    return MmsResult(best_value, Partition(tuple(parts)))


def covers(vals: list[int], d: int, T: int) -> bool:
    """Whether the non-negative ints ``vals`` split into d parts each worth at
    least T >= 1, by a DP over subsets.

    A state (c, f) says that adding some subset's items in some order, and
    closing a part as soon as its fill reaches T, closed c parts and left a
    fill f < T; it is stored as the int c * T + f, so that comparing ints
    compares states lexicographically. Adding an item v maps the state s to
    min(s + v, (s // T + 1) * T). Each subset keeps its best state only.

    Dominance: adding one item keeps the order of two states. If c = c' and
    f >= f', the larger fill closes its part whenever the smaller one does,
    and otherwise stays larger. If c > c', the smaller state reaches at most
    (c' + 1, 0) <= (c, 0), and the larger one at least that. So, for the same
    items added in the same order, the best state of a subset ends at least
    as high as any other state of it, and keeping only the best loses no
    reachable count of closed parts.

    Exactness: add the items of a split into d parts worth at least T each
    part by part. After j parts, c >= j: c never falls, and a part whose turn
    starts at c = j - 1 starts with a fill >= 0 and adds at least T. So the
    full set reaches c >= d. Conversely, c >= d closed parts are d disjoint
    groups worth at least T each, and the remaining items join any of them.
    """
    full = (1 << len(vals)) - 1
    goal = d * T
    best = [-1] * (full + 1)
    best[0] = 0
    bits = [(1 << i, v) for i, v in enumerate(vals)]
    for mask in range(full + 1):
        s = best[mask]
        if s >= goal:
            return True
        cap = (s // T + 1) * T
        for bit, v in bits:
            if not mask & bit:
                t = s + v
                if t > cap:
                    t = cap
                if t > best[mask | bit]:
                    best[mask | bit] = t
    return best[full] >= goal


def dp_share(inst: Instance, agent: int, d: int) -> Fraction:
    """The agent's d-share over all goods: the largest T that ``covers`` its
    row, scaled to ints by the lcm of the ``Instance.valuations``
    denominators, found by binary search on [0, total // d] from its top."""
    row = inst.valuations[agent]
    scale = lcm(*(v.denominator for v in row))
    vals = [int(v * scale) for v in row]
    lo, hi = 0, sum(vals) // d  # every row covers 0, and no split beats hi
    probe = hi  # the bound first, which a unit-share row at its own d meets
    while lo < hi:
        if covers(vals, d, probe):
            lo = probe
        else:
            hi = probe - 1
        probe = (lo + hi + 1) // 2
    return Fraction(lo, scale)
