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

from .core import Allocation, Instance, PriorityRanking, ThresholdList, _as_index_set, check_int, check_ranked
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
    int, so that each query is decided by one int comparison.
    """

    num_agents: int
    num_goods: int

    def unit(self, agent: int) -> int: ...

    def value(self, agent: int, goods: Bag) -> int: ...

    def choose_bag(self, open_bags: list[int]) -> int: ...


class TruthfulResponder:
    """Answers queries additively from an ordered unit-share instance, which
    it validates on construction, and fills the lowest-index open bag.

    An agent's unit is the L that ``Instance.scaled`` stores with her row,
    in lowest terms, and a bag's value the sum of its ints. A grown bag's value is its parent's plus one good:
    the responder keeps the value of the last bag each agent was asked about
    in each chain of bags, and drops the parent's once its child is answered.
    """

    def __init__(self, instance: Instance):
        instance.require_ordered(instance.num_agents)
        for i, (ints, scale) in enumerate(instance.scaled):  # ordered: good 0 is the top good
            if ints and ints[0] > scale:
                raise InputError(f"agent {i} values good 0 at {Fraction(ints[0], scale)} > 1, above a unit share")
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
        return open_bags[0]


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
    k = check_int("agents_left", agents_left, 1)
    ranked = sorted(goods)
    size = len(ranked)
    return [
        frozenset(ranked[j - 1] for j in positions if j <= size)
        for positions in ((1,), (k, k + 1), (2 * k - 1, 2 * k, 2 * k + 1), (1, 2 * k + 1))
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
    failed. The responder gives the number of agents n and of goods m, and
    each agent's unit, asked once per run.
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
    satisfied = [False] * n
    waiting = list(by_rank)  # agents without a bundle, in rank order
    goods_left = set(range(m))
    reductions: list[ReductionEvent] = []

    # Phase 1: reductions.
    while waiting and goods_left:
        shapes = reduction_shapes(goods_left, len(waiting))
        hit = None
        for shape_idx, shape in enumerate(shapes, start=1):
            if not shape:
                continue
            bag = Bag(shape)
            for agent in waiting:
                den, num = need[agent]
                if value(agent, bag) * den >= num:
                    hit = (shape_idx, agent, shape)
                    break
            if hit:
                break
        if hit is None:
            break
        shape_idx, agent, shape = hit
        reductions.append(ReductionEvent(shape_idx, shape, agent, len(waiting), len(goods_left)))
        bundles[agent] = shape
        satisfied[agent] = True
        waiting.remove(agent)
        goods_left -= shape

    phase2_agents = frozenset(waiting)
    phase2_goods = frozenset(goods_left)

    # Phase 2: bag filling over the surviving goods.
    bag_events: list[BagEvent] = []
    initial_bags: tuple[frozenset[int], ...] = ()
    ran_out = False
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
        while waiting:
            if len(waiting) != len(open_bags):
                raise GuaranteeViolation(
                    f"{len(waiting)} agents wait for {len(open_bags)} open bags"
                )
            hit = None
            for agent in waiting:
                den, num = need[agent]
                for b in open_bags:
                    if value(agent, bags[b]) * den >= num:
                        hit = (agent, b)
                        break
                if hit:
                    break
            if hit is not None:
                agent, b = hit
                bundles[agent] = bags[b].goods
                satisfied[agent] = True
                waiting.remove(agent)
                open_bags.remove(b)
                bag_events.append(BagEvent("assign", b, agent=agent))
            elif loose < len(ranked_goods):
                g = ranked_goods[loose]
                loose += 1
                b = responder.choose_bag(list(open_bags))
                if b not in open_bags:
                    raise InputError(f"responder picked a closed bag {b}")
                bags[b] = bags[b].add(g)
                bag_events.append(BagEvent("fill", b, good=g))
            else:
                ran_out = True
                for agent, b in zip(waiting, open_bags):
                    bundles[agent] = bags[b].goods
                    bag_events.append(BagEvent("leftover", b, agent=agent))
                break
    unallocated = frozenset(ranked_goods[loose:])

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


@dataclass(frozen=True)
class TruthfulRun:
    """A truthful run with its unit-share ``report`` and transcript ``structure`` checks."""

    allocation: Allocation
    transcript: Transcript
    report: verify.GuaranteeReport
    structure: verify.TranscriptReport


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
        report = verify.check_t_mms(inst, alloc, check_ranked(n, thresholds, ranking), thresholds, shares=(1,) * n)
        run = TruthfulRun(alloc, transcript, report, verify.check_transcript(transcript))
        if not (report.all_ok and run.structure.ok) and thresholds == priority_thresholds(n):
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
            raise InputError(f"agent {i}'s {n}-share is {result.value}, below a unit share")

