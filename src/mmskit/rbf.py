"""Reductions and bag filling with per-rank thresholds.

The allocator never reads valuations directly: every number it sees comes
through a ``ValueResponder``, so truthful and scripted (adversarial)
responders run the exact same code path. An agent *likes* a bag when the
responder's answer, in her units, meets her rank's threshold: one int
comparison per query.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Protocol, Sequence

from .core import (
    MAX_N, Allocation, BagEvent, Instance, PriorityRanking, ReductionEvent, ThresholdList, Transcript,
    _as_index_set, check_int, check_ranked, short_repr,
)
from .errors import GuaranteeViolation, InputError
from . import oracle, verify


class Bag:
    """A set of goods that the allocator grows one good at a time.

    ``Bag(goods)`` holds ``goods``. ``bag.add(g)`` returns a new bag holding
    ``bag``'s goods and ``g``, a good above all of them (the allocator adds
    loose goods in index order, after the pairs), with ``bag`` as its
    ``parent`` and ``g`` as its ``good``, so that a responder can answer for
    it from its answer for the parent. Each good is checked once, when its
    bag is made; ``goods`` builds the frozenset when it is first read.
    """

    __slots__ = ("parent", "good", "size", "top", "_goods")

    def __init__(self, goods: Iterable[int]):
        self.parent: Bag | None = None
        self.good: int | None = None
        self._goods: frozenset[int] | None = _as_index_set(goods)
        self.size = len(self._goods)
        self.top = max(self._goods, default=-1)

    def add(self, good: int) -> "Bag":
        if good.__class__ is not int or good <= self.top:
            check_int("good", good, 0)
            raise InputError(f"good must be above the bag's largest good {self.top}, got {good}")
        child = object.__new__(Bag)
        child.parent, child.good, child.size, child.top, child._goods = self, good, self.size + 1, good, None
        return child

    @property
    def goods(self) -> frozenset[int]:
        if self._goods is None:
            added, bag = [], self
            while bag._goods is None:
                added.append(bag.good)
                bag = bag.parent
            self._goods = bag._goods.union(added)
        return self._goods

    def total(self, ints: Sequence[int], stored: dict["Bag", int]) -> int:
        """The sum of ``ints`` over this bag's goods. A grown bag's sum is
        kept in ``stored``, in place of its parent's when the parent's is
        there; a root's is never kept. A good beyond ``ints`` raises InputError."""
        try:
            if self.parent is None:
                total = 0
                for g in self._goods:
                    total += ints[g]
                return total
            total = stored.get(self)
            if total is None:
                total = stored.pop(self.parent, None)
                total = sum(ints[g] for g in self.goods) if total is None else total + ints[self.good]
                stored[self] = total
            return total
        except IndexError:  # the goods' signs were checked when the bags were made
            _as_index_set(self.goods, len(ints) - 1)
            raise


class ValueResponder(Protocol):
    """Everything the allocator learns about a run: its size, each agent's
    unit, the value of each (agent, bag), and the open bag each loose good
    goes into.

    ``value`` is an int count of ``1/unit(agent)``, and ``unit`` a positive
    int, so that each query is decided by one int comparison. Within a run,
    ``value(agent, bag)`` must depend only on the agent and the bag's goods:
    ``run_rbf`` skips questions whose answers it already has.
    """

    num_agents: int
    num_goods: int

    def unit(self, agent: int) -> int: ...

    def value(self, agent: int, goods: Bag) -> int: ...

    def choose_bag(self, open_bags: list[int]) -> int: ...


class TruthfulResponder:
    """Answers queries additively from an ordered unit-share instance, and
    fills the lowest-index open bag. The first of the instance's
    ``verify.unit_share_violations`` at d = n raises InputError on construction.

    An agent's unit is the L that ``Instance.scaled`` stores with her row,
    in lowest terms, and a bag's value the sum of its ints. A grown bag's value is its parent's plus one good:
    the responder keeps the value of the last bag each agent was asked about
    in each chain of bags, and drops the parent's once its child is answered.
    """

    def __init__(self, instance: Instance):
        if violations := verify.unit_share_violations(instance, instance.num_agents):
            raise InputError(violations[0])
        self.instance = instance
        self.num_agents = instance.num_agents
        self.num_goods = instance.num_goods
        self._ints = [ints for ints, _ in instance.scaled]
        self._sums: list[dict[Bag, int]] = [{} for _ in range(self.num_agents)]

    def unit(self, agent: int) -> int:
        self.instance.check_agent(agent)
        return self.instance.scaled[agent][1]

    def value(self, agent: int, goods: Bag) -> int:
        if agent.__class__ is not int or not 0 <= agent < self.num_agents:
            self.instance.check_agent(agent)
        return goods.total(self._ints[agent], self._sums[agent])

    def choose_bag(self, open_bags: list[int]) -> int:
        try:
            return open_bags[0]
        except (IndexError, TypeError) as exc:
            raise InputError(f"no open bag to choose in {short_repr(open_bags)}") from exc


def priority_thresholds(n: int) -> ThresholdList:
    """The built-in per-rank targets max(2n/(2n+i-1), 3/4 + 1/(12n)).

    Rank 1 gets a full share; later ranks decay harmonically down to the
    uniform floor; ``ThresholdList`` checks that the list is non-increasing.
    """
    check_int("n", n, 1, MAX_N)
    floor = Fraction(3, 4) + Fraction(1, 12 * n)
    taus = tuple(max(Fraction(2 * n, 2 * n + i - 1), floor) for i in range(1, n + 1))
    return ThresholdList(taus)


def reduction_shapes(goods: Iterable[int], agents_left: int) -> list[frozenset[int]]:
    """Phase 1's four order-statistic bundles, types 1..4, over ``goods``,
    which are sorted once for all four. Goods that cannot be sorted or
    hashed raise InputError."""
    k = check_int("agents_left", agents_left, 1)
    try:
        ranked = sorted(goods)
        size = len(ranked)
        return [
            frozenset(ranked[j - 1] for j in positions if j <= size)
            for positions in ((1,), (k, k + 1), (2 * k - 1, 2 * k, 2 * k + 1), (1, 2 * k + 1))
        ]
    except TypeError as exc:
        raise InputError(f"not a collection of good indices: {short_repr(goods)}") from exc


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
    go to the remaining agents in rank order as ``"leftover"`` events; the
    run does not fail. The responder gives the number of agents n and of
    goods m, and each agent's unit, asked once per run.

    An answer depends only on the agent and the goods, and the waiting
    agents only shrink, so the run asks no (agent, goods) question twice
    within a phase. Phase 1 skips a shape that every waiting agent declined
    before; a hit shape's goods leave the pool, so it never comes back.
    Phase 2's scan gives each waiting agent, in rank order, the first open
    bag she likes; then every waiting agent declines every open bag until
    it is filled, so after a fill only the filled bag is asked about.
    """
    n = check_int("n", responder.num_agents, 1)
    m = check_int("m", responder.num_goods, 0)
    ranking = check_ranked(n, thresholds, ranking)
    if thresholds.taus and thresholds.taus[-1] <= 0:
        raise InputError("all thresholds must be positive for this allocator")

    by_rank = ranking.agents_by_rank()
    # She likes a bag of value v exactly when v / unit >= tau, that is when
    # v * tau.denominator >= tau.numerator * unit: need[agent] holds both ints.
    need = {}
    for rank, agent in enumerate(by_rank):
        tau = thresholds.taus[rank]
        need[agent] = (tau.denominator, tau.numerator * check_int("unit", responder.unit(agent), 1))
    value = responder.value

    bundles: list[frozenset[int]] = [frozenset() for _ in range(n)]
    waiting = list(by_rank)  # agents without a bundle, in rank order
    goods_left = set(range(m))
    reductions: list[ReductionEvent] = []

    # Phase 1: reductions.
    declined: set[frozenset[int]] = set()  # shapes that every waiting agent declined
    while waiting and goods_left:
        shapes = reduction_shapes(goods_left, len(waiting))
        hit = None
        for shape_idx, shape in enumerate(shapes, start=1):
            if not shape or shape in declined:
                continue
            bag = Bag(shape)
            for agent in waiting:
                den, num = need[agent]
                if value(agent, bag) * den >= num:
                    hit = (shape_idx, agent, shape)
                    break
            if hit:
                break
            declined.add(shape)
        if hit is None:
            break
        shape_idx, agent, shape = hit
        reductions.append(ReductionEvent(shape_idx, shape, agent, len(waiting), len(goods_left)))
        bundles[agent] = shape
        waiting.remove(agent)
        goods_left -= shape

    # Phase 2: bag filling over the surviving goods.
    bag_events: list[BagEvent] = []
    initial_bags: tuple[frozenset[int], ...] = ()
    ranked_goods = sorted(goods_left)
    loose = 0  # ranked_goods[loose:] are the loose goods, most valuable first
    if waiting:
        k = len(waiting)
        if len(goods_left) < 2 * k:
            raise GuaranteeViolation(
                f"{len(goods_left)} goods left for {k} agents; a normalized "
                f"input guarantees at least {2 * k}"
            )
        bags = [Bag((ranked_goods[i], ranked_goods[2 * k - 1 - i])) for i in range(k)]
        initial_bags = tuple(bag.goods for bag in bags)
        loose = 2 * k
        open_bags = list(range(k))

        def assign(agent: int, b: int) -> None:
            bundles[agent] = bags[b].goods
            waiting.remove(agent)
            open_bags.remove(b)
            bag_events.append(BagEvent("assign", b, agent=agent))
        # The scan: each waiting agent, in rank order, takes the first open bag
        # she likes. It walks a copy of waiting, which assign shrinks.
        for agent in waiting[:]:
            den, num = need[agent]
            for b in open_bags:
                if value(agent, bags[b]) * den >= num:
                    assign(agent, b)
                    break
        # Every waiting agent now declines every open bag, and keeps declining
        # it until it is filled: the fill loop asks only about the filled bag.
        while waiting:
            if len(waiting) != len(open_bags):
                raise GuaranteeViolation(f"{len(waiting)} agents wait for {len(open_bags)} open bags")
            if loose == len(ranked_goods):
                for agent, b in zip(waiting, open_bags):
                    bundles[agent] = bags[b].goods
                    bag_events.append(BagEvent("leftover", b, agent=agent))
                break
            g = ranked_goods[loose]
            loose += 1
            b = check_int("chosen bag", responder.choose_bag(list(open_bags)))
            if b not in open_bags:
                raise InputError(f"responder picked a closed bag {b}")
            bag = bags[b] = bags[b].add(g)
            bag_events.append(BagEvent("fill", b, good=g))
            for agent in waiting:
                den, num = need[agent]
                if value(agent, bag) * den >= num:
                    assign(agent, b)
                    break
    unallocated = frozenset(ranked_goods[loose:])

    alloc = Allocation(tuple(bundles), unallocated)
    transcript = Transcript(
        num_agents=n,
        num_goods=m,
        reductions=tuple(reductions),
        bag_events=tuple(bag_events),
        initial_bags=initial_bags,
    )
    return alloc, transcript


@dataclass(frozen=True)
class TruthfulRun:
    """A truthful run with its unit-share ``report`` and its transcript ``structure`` violations."""

    allocation: Allocation
    transcript: Transcript
    report: tuple[verify.AgentCheck, ...]
    structure: tuple[str, ...]


def run_rbf_truthful(
    inst: Instance,
    thresholds: ThresholdList,
    ranking: PriorityRanking | None = None,
) -> TruthfulRun:
    """Run the allocator on an ordered unit-share instance and check the run.

    The built-in thresholds serve every rank on such input, so a run there
    that misses a target or fails its structure check, like any run that
    raises GuaranteeViolation, is an InputError if some n-share is below 1,
    else a GuaranteeViolation. Other thresholds may miss."""
    n = inst.num_agents
    try:
        alloc, transcript = run_rbf(TruthfulResponder(inst), thresholds, ranking)
        # Every total is n (TruthfulResponder checked), so no n-share exceeds 1 and
        # tau_rank is a safe target; a miss goes to require_unit_shares below.
        rank_of = check_ranked(n, thresholds, ranking).rank_of
        report = verify.check_targets(inst, alloc, [thresholds.taus[r] for r in rank_of])
        run = TruthfulRun(alloc, transcript, report, verify.check_transcript(transcript))
        if (run.structure or not all(c.ok for c in report)) and thresholds == priority_thresholds(n):
            raise GuaranteeViolation("a default-threshold run violated its guarantee or structure checks")
    except GuaranteeViolation:
        require_unit_shares(inst)
        raise
    return run


def require_unit_shares(inst: Instance) -> None:
    """Raise InputError naming the first agent whose n-share is below 1. It
    runs the oracle, so it is called only once a truthful run falls short."""
    n = inst.num_agents
    for i, result in enumerate(oracle.mms_all(inst, n)):
        if result.value < 1:
            raise InputError(f"agent {i}'s {n}-share is {short_repr(result.value, str)}, below a unit share")

