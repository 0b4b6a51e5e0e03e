"""Reductions to ordered, unit-normalized form and the maps back.

The pipeline rescales each agent so that some partition of the goods into d
bundles is worth exactly 1 per bundle, sorts every agent's values into a
common non-increasing order, and later converts an allocation of the sorted
instance back to the original goods via a picking procedure that can only
increase each agent's value.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .core import Allocation, Instance, check_int, check_sequence, scale_row, short_repr
from .errors import GuaranteeViolation, InputError
from . import oracle

# Cap on the goods ``pad_goods`` pads to. ``run_1_out_of_d`` pads n agents to
# 2n goods and searches at d = 4n/3 <= ``oracle.MAX_PARTS``, so this covers
# every padding a run can use; a larger ask would fill each row with zeros.
MAX_PADDED_GOODS = 2 * oracle.MAX_PARTS

def pad_agents_to_multiple_of_3(inst: Instance) -> Instance:
    """Clone agent 0 until the agent count is a multiple of 3.

    The clones are the rows past the original agents.
    """
    clones = -check_int("n", inst.num_agents, 1) % 3
    if not clones:
        return inst
    return Instance(inst.scaled + (inst.scaled[0],) * clones, inst.num_goods)


def pad_goods(inst: Instance, min_goods: int) -> Instance:
    """Append zero-valued goods until there are at least ``min_goods``.

    The dummies are the goods past the original m. Zero columns keep both the
    ordered and the normalized property intact.
    """
    check_int("min_goods", min_goods, 0, MAX_PADDED_GOODS)
    if min_goods <= inst.num_goods:
        return inst
    zeros = (0,) * (min_goods - inst.num_goods)
    return Instance(tuple((ints + zeros, scale) for ints, scale in inst.scaled), min_goods)


def normalize(
    inst: Instance, d: int, node_budget: int | None = None
) -> tuple[Instance, tuple[oracle.MmsResult, ...]]:
    """Divide each agent's values by her witness-part values so every part of
    her d-share partition is worth exactly 1.

    Returns the normalized instance and every agent's oracle result. An agent
    whose d-share is 0 cannot be rescaled: InputError.
    """
    results = oracle.mms_all(inst, d, node_budget=node_budget)
    rows = []
    for i, result in enumerate(results):
        if result.value == 0:
            raise InputError(f"agent {i} has a {d}-share of 0 and cannot be normalized")
        # Both a good and its part are scaled by the row's L, which cancels.
        ints, _ = inst.scaled[i]
        part_of_good: dict[int, int] = {}
        for part in result.witness.parts:
            pv = sum(ints[g] for g in part)
            for g in part:
                part_of_good[g] = pv
        rows.append(scale_row([(ints[g], part_of_good[g]) for g in range(inst.num_goods)]))
    return Instance(tuple(rows), inst.num_goods), results


def order(inst: Instance) -> tuple[Instance, tuple[tuple[int, ...], ...]]:
    """Sort each agent's values non-increasingly (ties by good index).

    After ordering, position p holds every agent's p-th largest value, so the
    identity order of positions works for all agents simultaneously. The
    permutation maps sorted position -> original good index.
    """
    goods = range(inst.num_goods)
    perms = tuple(tuple(sorted(goods, key=lambda g: (-ints[g], g))) for ints, _ in inst.scaled)
    rows = tuple((tuple([ints[g] for g in perm]), scale) for (ints, scale), perm in zip(inst.scaled, perms))
    return Instance(rows, inst.num_goods), perms


def unpick(ordered_alloc: Allocation, normalized: Instance, ordered: Instance) -> Allocation:
    """Convert an allocation of sorted positions back to concrete goods.

    ``ordered`` is ``normalized`` after ``order``. Positions are processed
    from most valuable down; at each position its owner picks her favourite
    remaining good under her normalized valuation (ties broken by lowest good
    index). Each agent ends up at least as well off as she was in the sorted
    instance; this is re-checked exactly, on each agent's ints: ``order``
    only permutes them, so her normalized and ordered rows share one L.
    """
    ordered.check_allocation(ordered_alloc)
    n = normalized.num_agents
    m = normalized.num_goods
    owner = {pos: a for a, bundle in enumerate(ordered_alloc.bundles) for pos in bundle}
    remaining = set(range(m))
    picked: list[set[int]] = [set() for _ in range(n)]
    for pos in range(m):
        a = owner.get(pos)
        if a is None:
            continue
        ints, _ = normalized.scaled[a]
        g = max(remaining, key=lambda g: (ints[g], -g))
        picked[a].add(g)
        remaining.remove(g)
    result = Allocation(tuple(frozenset(p) for p in picked), frozenset(remaining))
    for a in range(n):
        ints, scale = normalized.scaled[a]
        got = sum(ints[g] for g in result.bundles[a])
        had = sum(ordered.scaled[a][0][p] for p in ordered_alloc.bundles[a])
        if got < had:
            raise GuaranteeViolation(
                f"picking lowered agent {a}'s value from {short_repr(Fraction(had, scale), str)} "
                f"to {short_repr(Fraction(got, scale), str)}; this contradicts the picking argument"
            )
    return result


def reinstate(alloc: Allocation, original: Instance, survivors: Sequence[int]) -> Allocation:
    """Map an allocation of the padded instance back to the original one.

    ``survivors[r]`` is the original index of row r; rows past
    ``len(survivors)`` are clones and goods past the original m are dummies.
    Dummy goods vanish. Each surviving original agent keeps her own bundle;
    clone bundles are released to ``unallocated`` (the original agent already
    meets her target with her own bundle). Dropped zero-share agents get the
    empty bundle, which meets their zero target.
    """
    survivors = check_sequence("survivors", survivors, "agent indices")
    n_orig = original.num_agents
    m_orig = original.num_goods
    for s in survivors:
        check_int("survivor", s, 0, n_orig - 1)
    if len(set(survivors)) < len(survivors):
        raise InputError(f"survivors repeat an agent: {short_repr(survivors)}")
    bundles: list[frozenset[int]] = [frozenset() for _ in range(n_orig)]
    leftovers = {g for g in alloc.unallocated if g < m_orig}
    for row, bundle in enumerate(alloc.bundles):
        real = frozenset(g for g in bundle if g < m_orig)
        if row < len(survivors):
            bundles[survivors[row]] = real
        else:
            leftovers |= real
    return Allocation(tuple(bundles), frozenset(leftovers))
