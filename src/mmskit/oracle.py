"""Exact maximin-share values with witnesses.

``mms`` is a branch-and-bound multiway partition search over the agent's
integer row from ``Instance.scaled``. It returns the exact optimum or raises;
it never returns an approximate answer. The module keeps no state between calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .core import Instance, Partition, check_int
from .errors import SearchBudgetExceeded

DEFAULT_NODE_BUDGET = 10**7
# Cap on d. A witness holds d parts, so memory grows linearly in d, and a
# short flag such as ``--d 100000000`` would ask for tens of GB.
MAX_PARTS = 10_000
# Cap on the bits of one search's subset-sum tables, over all depths: about
# (K + 1) * (cap + 1), so at most 1 MiB. A row past it is searched without the
# subset-sum cut, to the same result with more nodes.
SUBSET_SUM_BITS = 1 << 23


class _OutOfNodes(Exception):
    """``_search`` ran past its node budget; ``mms`` names the agent and d."""


@dataclass(frozen=True)
class MmsResult:
    """The maximin value together with one partition achieving it."""

    value: Fraction
    witness: Partition


def _subset_sums(vals: tuple[int, ...], cap: int) -> list[int] | None:
    """Per depth t, the subset sums of ``vals[t:]`` up to ``cap``, as the set
    bits of one int; None when the K + 1 ints would hold more than
    ``SUBSET_SUM_BITS`` bits."""
    K = len(vals)
    if (K + 1) * (cap + 1) > SUBSET_SUM_BITS:
        return None
    mask = (2 << cap) - 1
    reach = [1] * (K + 1)
    for t in range(K - 1, -1, -1):
        r = reach[t + 1]
        reach[t] = (r | r << vals[t]) & mask
    return reach


def _search(vals: tuple[int, ...], d: int, budget: int) -> tuple[int, tuple[int, ...]]:
    """Maximize the minimum part sum over partitions of ``vals`` into d parts.

    ``vals`` must be positive ints, non-increasing, with len(vals) >= d >= 1.
    Returns (optimal min, part index per item), or raises ``_OutOfNodes``
    at node ``budget + 1``. Deterministic: the witness is
    the greedy seed when the seed is already optimal, otherwise the last
    strict improvement found in a fixed depth-first order. The depth-first
    search keeps its own stack, so no recursion limit applies to it.

    Pruning, on ints. No part can exceed ``total // d``, so an incumbent
    worth that much is optimal and the search stops. A node is cut when its
    unplaced items cannot lift every part to ``best + 1``: the parts' total
    shortfall below ``best + 1`` exceeds the unplaced sum, or more parts
    fall short than items remain. A cut subtree holds no leaf that beats the
    incumbent of that moment, and the incumbent only grows, so no cut skips
    a strict improvement: the search finds the same improvements in the
    same order as one that cuts nothing, and returns the same value and
    witness. The water-filling relaxation, whose optimum W pours the
    unplaced sum onto the lowest parts, would cut only when ``W <= best``;
    this cut holds whenever ``W < best + 1``, since part sums are ints. So
    the search never visits more nodes than one cut by that relaxation.

    The subset-sum cut asks whether the unplaced items can be split to meet
    each shortfall. Let ``room`` be the unplaced sum less the total
    shortfall. A leaf that beats the incumbent gives each short part a
    subset of the unplaced items worth at least its deficit δ, and at most
    δ + room, since the other short parts need the rest. So a node with two
    or more short parts is cut when some part's window [δ, δ + room] holds
    no subset sum of the unplaced items. The sums come from one bitset per
    depth, kept up to ``cap`` (``_subset_sums``); a window that reaches past
    ``cap`` is not tested. Like the cut above, it skips no strict
    improvement, so the value and witness are the same.
    """
    K = len(vals)
    cap = sum(vals) // d

    # Greedy seed: assign each item to the currently lightest part.
    sums = [0] * d
    seed = [0] * K
    for t, v in enumerate(vals):
        j = sums.index(min(sums))
        sums[j] += v
        seed[t] = j
    best_val = min(sums)
    best_assign = tuple(seed)
    if best_val == cap:
        return best_val, best_assign

    suffix = [0] * (K + 1)
    for t in range(K - 1, -1, -1):
        suffix[t] = suffix[t + 1] + vals[t]
    reach = _subset_sums(vals, cap)

    sums = [0] * d
    assign = [0] * K
    next_part = [0] * K  # per depth: the first part not yet tried
    tried: list[set[int]] = [set() for _ in range(K)]  # per depth: part sums tried
    nodes = 0
    t = 0
    entering = True  # False when returning to depth t from its child
    while t >= 0:
        if entering:
            nodes += 1
            if nodes > budget:
                raise _OutOfNodes
            if t == K:
                m = min(sums)
                if m > best_val:
                    best_val = m
                    best_assign = tuple(assign)
                    if best_val == cap:
                        break
                t -= 1
                entering = False
                continue
            # Can the unplaced items lift every part to best_val + 1?
            target = best_val + 1
            need = short = 0
            for s in sums:
                if s < target:
                    need += target - s
                    short += 1
            room = suffix[t] - need
            cut = room < 0 or short > K - t
            if not cut and short > 1 and reach and room < cap:
                # Each short part needs a subset of the unplaced items worth
                # from its deficit up to the deficit plus the spare ``room``.
                window = (2 << room) - 1  # room + 1 bits
                sums_t = reach[t]
                for s in sums:
                    lo = target - s
                    if 0 < lo <= cap - room and not (sums_t >> lo) & window:
                        cut = True
                        break
            if cut:
                t -= 1
                entering = False
                continue
            # Equal-value items are interchangeable: force non-decreasing part
            # indices among them. Parts with equal current sums are symmetric:
            # try only the first of each sum (this also covers "first empty part").
            next_part[t] = assign[t - 1] if t > 0 and vals[t] == vals[t - 1] else 0
            tried[t].clear()
        else:
            sums[assign[t]] -= vals[t]
        v = vals[t]
        seen = tried[t]
        for j in range(next_part[t], d):
            s = sums[j]
            if s not in seen:
                seen.add(s)
                sums[j] = s + v
                assign[t] = j
                next_part[t] = j + 1
                t += 1
                entering = True
                break
        else:
            t -= 1
            entering = False
    return best_val, best_assign


def check_search(d: int, node_budget: int | None) -> int:
    """The one check of d and ``node_budget``; returns the budget in effect, the default for None."""
    check_int("d", d, 1, MAX_PARTS)
    return DEFAULT_NODE_BUDGET if node_budget is None else check_int("node_budget", node_budget, 0)


def mms(
    inst: Instance,
    agent: int,
    d: int,
    goods: Iterable[int] | None = None,
    node_budget: int | None = None,
) -> MmsResult:
    """Exact maximin share of ``agent`` splitting ``goods`` into ``d`` bundles.

    Deterministic for fixed inputs. Raises SearchBudgetExceeded, naming
    ``agent`` and ``d`` (never a wrong answer), if the branch-and-bound
    exceeds its node budget.
    """
    budget = check_search(d, node_budget)
    inst.check_agent(agent)
    good_list = range(inst.num_goods) if goods is None else sorted(inst.check_goods(goods))
    ints, scale = inst.scaled[agent]
    positive = sorted((g for g in good_list if ints[g]), key=lambda g: (-ints[g], g))
    zero = [g for g in good_list if not ints[g]]

    if len(positive) < d:
        # Some part must stay empty of positive goods: the maximin is 0.
        parts = [set(good_list)] + [set() for _ in range(d - 1)]
        return MmsResult(Fraction(0), Partition(tuple(frozenset(p) for p in parts)))

    try:
        value, assign = _search(tuple(ints[g] for g in positive), d, budget)
    except _OutOfNodes:
        raise SearchBudgetExceeded(budget, agent, d) from None
    parts = [set() for _ in range(d)]
    for t, g in enumerate(positive):
        parts[assign[t]].add(g)
    parts[0].update(zero)  # zero-valued goods do not affect any part value
    return MmsResult(Fraction(value, scale), Partition(tuple(frozenset(p) for p in parts)))


def mms_all(inst: Instance, d: int, node_budget: int | None = None) -> tuple[MmsResult, ...]:
    """Every agent's ``mms`` over all goods, in agent order: the one loop over
    agents' shares. Each distinct ``Instance.scaled`` row is searched once;
    equal rows have equal integer forms, since each L is in lowest terms.
    d and ``node_budget`` are checked even when there are no agents."""
    check_search(d, node_budget)
    solved: dict[tuple[tuple[int, ...], int], MmsResult] = {}
    for i, row in enumerate(inst.scaled):
        if row not in solved:
            solved[row] = mms(inst, i, d, node_budget=node_budget)
    return tuple(solved[row] for row in inst.scaled)
