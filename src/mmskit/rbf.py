"""Reductions and bag filling with per-rank thresholds.

The allocator never reads valuations directly: every number it sees comes
through a ``ValueResponder``, so truthful and scripted (adversarial)
responders run the exact same code path. An agent *likes* a set when the
responder's answer meets her rank's threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Protocol

from .core import Allocation, Instance, PriorityRanking, ThresholdList, bundle_value, check_int
from .errors import GuaranteeViolation, InputError
from . import oracle


class ValueResponder(Protocol):
    """Everything the allocator learns about a run: its size, the value of
    each (agent, set of goods), and the open bag each loose good goes into."""

    num_agents: int
    num_goods: int

    def value(self, agent: int, goods: frozenset[int]) -> Fraction: ...

    def choose_bag(self, open_bags: list[int]) -> int: ...


class TruthfulResponder:
    """Answers queries additively from an ordered unit-share instance, which
    it validates on construction, and fills the lowest-index open bag."""

    def __init__(self, instance: Instance):
        instance.require_ordered(instance.num_agents)
        for i, (ints, scale) in enumerate(instance.scaled):  # ordered: good 0 is the top good
            if ints and ints[0] > scale:
                top = instance.valuations[i][0]
                raise InputError(f"agent {i} values good 0 at {top} > 1, above a unit share")
        self.instance = instance
        self.num_agents = instance.num_agents
        self.num_goods = instance.num_goods

    def value(self, agent: int, goods: frozenset[int]) -> Fraction:
        return bundle_value(self.instance, agent, goods)

    def choose_bag(self, open_bags: list[int]) -> int:
        return open_bags[0]


def ord_st(goods: Iterable[int], positions: Iterable[int]) -> frozenset[int]:
    """The j-th smallest elements of ``goods`` for each 1-based j in
    ``positions``; positions beyond the set size are silently skipped."""
    return _order_statistics(sorted(goods), positions)


def _order_statistics(ranked: list[int], positions: Iterable[int]) -> frozenset[int]:
    """``ord_st`` on goods already sorted into ``ranked``."""
    for j in positions:
        check_int("position", j)
    return frozenset(ranked[j - 1] for j in positions if 1 <= j <= len(ranked))


def priority_thresholds(n: int) -> ThresholdList:
    """The built-in per-rank targets max(2n/(2n+i-1), 3/4 + 1/(12n)).

    Rank 1 gets a full share; later ranks decay harmonically down to the
    uniform floor; ``ThresholdList`` checks that the list is non-increasing.
    """
    check_int("n", n, 1)
    floor = Fraction(3, 4) + Fraction(1, 12 * n)
    taus = tuple(max(Fraction(2 * n, 2 * n + i - 1), floor) for i in range(1, n + 1))
    return ThresholdList(taus)


@dataclass(frozen=True)
class ReductionEvent:
    """One removal of (bundle, agent) during phase 1."""

    type: int  # 1..4, the order-statistic shape of the bundle
    bundle: frozenset[int]
    agent: int
    agents_before: int
    goods_before: int


@dataclass(frozen=True)
class BagEvent:
    kind: str  # "assign" | "fill" | "leftover"
    bag: int
    agent: int | None = None
    good: int | None = None


@dataclass(frozen=True)
class Transcript:
    """Ordered log of one run, sufficient to re-check its structure."""

    num_agents: int
    num_goods: int
    reductions: tuple[ReductionEvent, ...]
    bag_events: tuple[BagEvent, ...]
    phase2_agents: frozenset[int]
    phase2_goods: frozenset[int]
    initial_bags: tuple[frozenset[int], ...]
    ran_out_of_goods: bool
    satisfied: tuple[bool, ...]

    def reduction_types(self) -> tuple[int, ...]:
        return tuple(e.type for e in self.reductions)


def reduction_shapes(goods: Iterable[int], agents_left: int) -> list[frozenset[int]]:
    """Phase 1's four order-statistic bundles, types 1..4, over ``goods``,
    which are sorted once for all four."""
    k = agents_left
    ranked = sorted(goods)
    return [
        _order_statistics(ranked, positions)
        for positions in ({1}, {k, k + 1}, {2 * k - 1, 2 * k, 2 * k + 1}, {1, 2 * k + 1})
    ]


def run_rbf(
    responder: ValueResponder,
    thresholds: ThresholdList,
    ranking: PriorityRanking | None = None,
) -> tuple[Allocation, Transcript]:
    """Two phases: order-statistic reductions, then bag filling.

    Phase 1 repeatedly finds the lexicographically smallest (shape, rank)
    pair such that the ranked agent likes the shape's bundle, hands it over,
    and removes both. Phase 2 pairs the 2|N| most valuable remaining goods
    into |N| bags and serves the smallest-rank agent liking any bag; when
    nobody likes anything, the most valuable loose good goes into the open
    bag the responder chooses. If the loose goods run out, the leftover bags
    go to the remaining agents in rank order and the run is flagged, not
    failed. The responder gives the number of agents n and of goods m.
    """
    n = check_int("n", responder.num_agents, 1)
    m = check_int("m", responder.num_goods, 0)
    if len(thresholds) != n:
        raise InputError(f"expected {n} thresholds, got {len(thresholds)}")
    if thresholds.taus and thresholds.taus[-1] <= 0:
        raise InputError("all thresholds must be positive for this allocator")
    ranking = ranking if ranking is not None else PriorityRanking.identity(n)
    if ranking.num_agents != n:
        raise InputError(f"ranking covers {ranking.num_agents} agents, expected {n}")

    by_rank = ranking.agents_by_rank()
    tau_of = {agent: thresholds.taus[rank] for rank, agent in enumerate(by_rank)}

    bundles: list[frozenset[int]] = [frozenset() for _ in range(n)]
    satisfied = [False] * n
    agents_left = set(range(n))
    goods_left = set(range(m))
    reductions: list[ReductionEvent] = []

    # Phase 1: reductions.
    while agents_left and goods_left:
        shapes = reduction_shapes(goods_left, len(agents_left))
        hit = None
        for shape_idx, shape in enumerate(shapes, start=1):
            if not shape:
                continue
            for agent in by_rank:
                if agent not in agents_left:
                    continue
                if responder.value(agent, shape) >= tau_of[agent]:
                    hit = (shape_idx, agent, shape)
                    break
            if hit:
                break
        if hit is None:
            break
        shape_idx, agent, shape = hit
        reductions.append(
            ReductionEvent(shape_idx, shape, agent, len(agents_left), len(goods_left))
        )
        bundles[agent] = shape
        satisfied[agent] = True
        agents_left.remove(agent)
        goods_left -= shape

    phase2_agents = frozenset(agents_left)
    phase2_goods = frozenset(goods_left)

    # Phase 2: bag filling over the surviving goods.
    bag_events: list[BagEvent] = []
    initial_bags: tuple[frozenset[int], ...] = ()
    ran_out = False
    if agents_left:
        k = len(agents_left)
        if len(goods_left) < 2 * k:
            raise GuaranteeViolation(
                f"{len(goods_left)} goods left for {k} agents; a normalized "
                f"input guarantees at least {2 * k}"
            )
        ranked_goods = sorted(goods_left)
        bags = [
            {ranked_goods[i], ranked_goods[2 * k - 1 - i]} for i in range(k)
        ]
        initial_bags = tuple(frozenset(b) for b in bags)
        loose = ranked_goods[2 * k:]  # most valuable first
        open_bags = list(range(k))
        waiting = [a for a in by_rank if a in agents_left]
        while waiting:
            if len(waiting) != len(open_bags):
                raise GuaranteeViolation(
                    f"{len(waiting)} agents wait for {len(open_bags)} open bags"
                )
            hit = None
            for agent in waiting:
                for b in open_bags:
                    if responder.value(agent, frozenset(bags[b])) >= tau_of[agent]:
                        hit = (agent, b)
                        break
                if hit:
                    break
            if hit is not None:
                agent, b = hit
                bundles[agent] = frozenset(bags[b])
                satisfied[agent] = True
                waiting.remove(agent)
                open_bags.remove(b)
                bag_events.append(BagEvent("assign", b, agent=agent))
            elif loose:
                g = loose.pop(0)
                b = responder.choose_bag(list(open_bags))
                if b not in open_bags:
                    raise InputError(f"responder picked a closed bag {b}")
                bags[b].add(g)
                bag_events.append(BagEvent("fill", b, good=g))
            else:
                ran_out = True
                for agent, b in zip(waiting, open_bags):
                    bundles[agent] = frozenset(bags[b])
                    bag_events.append(BagEvent("leftover", b, agent=agent))
                break
        unallocated = frozenset(loose)
    else:
        unallocated = frozenset(goods_left)

    alloc = Allocation(tuple(bundles), unallocated)
    transcript = Transcript(
        num_agents=n,
        num_goods=m,
        reductions=tuple(reductions),
        bag_events=tuple(bag_events),
        phase2_agents=phase2_agents,
        phase2_goods=phase2_goods,
        initial_bags=initial_bags,
        ran_out_of_goods=ran_out,
        satisfied=tuple(satisfied),
    )
    return alloc, transcript


def run_rbf_truthful(
    inst: Instance,
    thresholds: ThresholdList,
    ranking: PriorityRanking | None = None,
) -> tuple[Allocation, Transcript]:
    """Run the allocator on a concrete ordered unit-share instance; a run that
    falls short is an InputError if some n-share is below 1."""
    try:
        return run_rbf(TruthfulResponder(inst), thresholds, ranking)
    except GuaranteeViolation:
        require_unit_shares(inst)
        raise


def require_unit_shares(inst: Instance) -> None:
    """Raise InputError naming the first agent whose n-share is below 1. It
    runs the oracle, so it is called only once a truthful run falls short."""
    n = inst.num_agents
    for i, result in enumerate(oracle.mms_all(inst, n)):
        if result.value < 1:
            raise InputError(f"agent {i}'s {n}-share is {result.value}, below a unit share")

