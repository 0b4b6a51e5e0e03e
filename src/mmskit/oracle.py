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


def _search(
    vals: tuple[int, ...], d: int, budget: int, floor: int | None = None
) -> tuple[int, tuple[int, ...]] | None:
    """Maximize the minimum part sum over partitions of ``vals`` into d parts.

    ``vals`` must be positive ints, non-increasing, with len(vals) >= d >= 1.
    Returns (optimal min, part index per item), or raises ``_OutOfNodes``
    at node ``budget + 1``. Deterministic: the witness is
    the greedy seed when the seed is already optimal, otherwise the first
    leaf worth the optimum in a fixed depth-first order. The depth-first
    search keeps its own stack, so no recursion limit applies to it.

    With ``floor``, the search is a decision: it returns the greedy seed if
    that is worth at least ``floor``, otherwise the first leaf worth at least
    ``floor``, or None once the tree is exhausted.

    Without it, the share is decided at its upper bound ``ub`` before it is
    searched. Of any d parts, at least d - k hold none of the k largest
    items, so ``ub``, the least ``(total - top k) // (d - k)`` over
    k = 0..d-1, bounds every leaf; k = 0 gives ``cap = total // d``. The
    seed is returned if it is worth ``ub``. Otherwise the decision at
    ``ub`` runs; if it finds no leaf, the share is at most ``ub - 1``, so a
    seed worth that is optimal, and any other seed starts a search from it
    that stops at its first leaf worth ``ub - 1``. Both passes share one
    set-up, one loop and one node budget.

    Why both passes return the first leaf worth the optimum V: the symmetry
    rules below never read the incumbent, and every cut keeps each subtree
    that holds a leaf worth more than the incumbent. So a search whose
    incumbent starts below V reaches the same first leaf worth V, whatever
    that start, and no later leaf improves on it. A decision, whose
    incumbent starts at ``floor - 1``, returns that leaf when ``floor`` is
    V; a search from a seed below V does too; and the seed is returned only
    when it is optimal.

    Pruning, on ints. A node is cut when its unplaced items cannot lift
    every part to ``best + 1``: the parts' total shortfall below
    ``best + 1`` exceeds the unplaced sum, or more parts fall short than
    items remain. Such a subtree holds no leaf that beats the incumbent.
    The water-filling relaxation, whose optimum W pours the unplaced sum
    onto the lowest parts, would cut only when ``W <= best``; this cut
    holds whenever ``W < best + 1``, since part sums are ints. So the
    search never visits more nodes than one cut by that relaxation.

    The first of these cuts is also tested before a child is entered. An
    item of value v placed in a part worth s overshoots the part's deficit
    by ``v - max(0, best + 1 - s)``; the child's room is the node's less
    that overshoot, so the child is skipped when the overshoot exceeds the
    node's room, that is when v exceeds the room and s exceeds
    ``best + 1 + room - v``. The room is kept from the node's entry, and a
    larger incumbent only shrinks it, so a stale room skips fewer children,
    never one that holds a leaf above the incumbent.

    The subset-sum cut asks whether the unplaced items can be split to meet
    each shortfall. Let ``room`` be the unplaced sum less the total
    shortfall. A leaf that beats the incumbent gives each short part a
    subset of the unplaced items worth at least its deficit δ, and at most
    δ + room, since the other short parts need the rest. So a node with two
    or more short parts is cut when some part's window [δ, δ + room] holds
    no subset sum of the unplaced items. The sums come from one bitset per
    depth, kept up to ``cap`` (``_subset_sums``); a window that reaches past
    ``cap`` is not tested. Like the cut above, it keeps every subtree that
    holds a leaf worth more than the incumbent.
    """
    K = len(vals)
    total = sum(vals)
    cap = ub = total // d
    rest = total
    for k in range(1, d):
        rest -= vals[k - 1]
        ub = min(ub, rest // (d - k))

    # Greedy seed: assign each item to the currently lightest part.
    sums = [0] * d
    seed = [0] * K
    for t, v in enumerate(vals):
        j = sums.index(min(sums))
        sums[j] += v
        seed[t] = j
    seed_val = min(sums)
    goal = ub if floor is None else floor
    if seed_val >= goal:
        return seed_val, tuple(seed)
    # Each pass: (starting incumbent, its witness, the value that ends the pass).
    passes = [(goal - 1, None, goal)]
    if floor is None and seed_val < ub - 1:
        passes.append((seed_val, tuple(seed), ub - 1))

    suffix = [0] * (K + 1)
    for t in range(K - 1, -1, -1):
        suffix[t] = suffix[t + 1] + vals[t]
    reach = _subset_sums(vals, cap)

    sums = [0] * d
    assign = [0] * K
    next_part = [0] * K  # per depth: the first part not yet tried
    tried: list[set[int]] = [set() for _ in range(K)]  # per depth: part sums tried
    spare = [0] * K  # per depth: the node's room when it was entered
    nodes = 0
    for best_val, best_assign, stop in passes:
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
                        if best_val >= stop:
                            return best_val, best_assign
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
                spare[t] = room
            else:
                sums[assign[t]] -= vals[t]
            v = vals[t]
            seen = tried[t]
            # Skip each part whose sum exceeds ``limit``: the child would be cut.
            limit = best_val + 1 + spare[t] - v if v > spare[t] else total
            for j in range(next_part[t], d):
                s = sums[j]
                if s <= limit and s not in seen:
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
        if best_assign is not None:
            return best_val, best_assign
    return None if floor is not None else (seed_val, tuple(seed))


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
