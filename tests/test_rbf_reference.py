"""The threshold allocator against a naive reference written from the paper's
pseudocode: Fraction sums over frozenset bags, ``>=`` against each agent's
threshold, and nothing remembered between queries.

Both must produce the same allocation and transcript, or fail with the same
error. The reference decides by asking every question the pseudocode asks,
and counts twice: every query, and the queries whose (agent, goods) pair was
not asked before in the same phase. The allocator asks no question twice
within a phase and skips none whose answer it lacks, so a responder subclass
that overrides only ``value`` must see exactly the second count, and never
more than the first: that hook is how perfbench counts ``rbf.queries``.
"""

import random
from fractions import Fraction

import pytest

from mmskit import (
    Allocation,
    Instance,
    PriorityRanking,
    ThresholdList,
    TruthfulResponder,
    gen_hard2_responders,
    priority_thresholds,
    run_rbf,
)
from mmskit.adversarial import ScriptedHard2Responder
from mmskit.errors import GuaranteeViolation
from mmskit.rbf import BagEvent, ReductionEvent, Transcript

from _instances import unit_share_rows


def reference_rbf(n, m, value, choose_bag, thresholds, ranking):
    """Reductions and bag filling as the paper states them. ``value(agent,
    goods)`` is a Fraction for a frozenset of goods. Returns the allocation,
    the transcript, the number of value queries, the number of those not
    asked before in the same phase, and the run's own facts: the agents and
    goods that reached phase 2, who was satisfied and whether goods ran out."""
    queries = fresh_queries = 0
    tau = {agent: thresholds.taus[rank] for agent, rank in enumerate(ranking.rank_of)}
    memo = set()  # the (agent, goods) questions asked in this phase

    def likes(agent, goods):
        nonlocal queries, fresh_queries
        queries += 1
        fresh_queries += (agent, goods) not in memo
        memo.add((agent, goods))
        return value(agent, goods) >= tau[agent]

    agents = sorted(range(n), key=lambda a: ranking.rank_of[a])  # N, in rank order
    goods = set(range(m))  # M
    bundles = [frozenset()] * n
    satisfied = [False] * n
    reductions = []
    while agents and goods:
        k = len(agents)
        ranked = sorted(goods)

        def ord_st(*positions):
            return frozenset(ranked[j - 1] for j in positions if j <= len(ranked))

        shapes = [ord_st(1), ord_st(k, k + 1), ord_st(2 * k - 1, 2 * k, 2 * k + 1), ord_st(1, 2 * k + 1)]
        hit = next(
            (
                (t, a, s)
                for t, s in enumerate(shapes, start=1)
                if s
                for a in agents
                if likes(a, s)
            ),
            None,
        )
        if hit is None:
            break
        t, a, s = hit
        reductions.append(ReductionEvent(t, s, a, len(agents), len(goods)))
        bundles[a] = s
        satisfied[a] = True
        agents.remove(a)
        goods -= s

    phase2_agents, phase2_goods = frozenset(agents), frozenset(goods)
    memo.clear()  # phase 2's first middle bag {k, k+1} can be a type-2 shape of phase 1
    events, initial, ran_out = [], (), False
    loose = sorted(goods)
    if agents:
        k = len(agents)
        if len(goods) < 2 * k:
            raise GuaranteeViolation(
                f"{len(goods)} goods left for {k} agents; a normalized input guarantees at least {2 * k}"
            )
        bags = [frozenset({loose[i], loose[2 * k - 1 - i]}) for i in range(k)]
        initial = tuple(bags)
        loose = loose[2 * k:]
        open_bags = list(range(k))
        while agents:
            hit = next(((a, b) for a in agents for b in open_bags if likes(a, bags[b])), None)
            if hit is not None:
                a, b = hit
                bundles[a] = bags[b]
                satisfied[a] = True
                agents.remove(a)
                open_bags.remove(b)
                events.append(BagEvent("assign", b, agent=a))
            elif loose:
                g = loose.pop(0)
                b = choose_bag(list(open_bags))
                bags[b] = bags[b] | {g}
                events.append(BagEvent("fill", b, good=g))
            else:
                ran_out = True
                for a, b in zip(agents, open_bags):
                    bundles[a] = bags[b]
                    events.append(BagEvent("leftover", b, agent=a))
                break
    transcript = Transcript(n, m, tuple(reductions), tuple(events), initial)
    facts = (phase2_agents, phase2_goods, tuple(satisfied), ran_out)
    return Allocation(tuple(bundles), frozenset(loose)), transcript, queries, fresh_queries, facts


def _truthful_reference(inst):
    rows = inst.valuations

    def value(agent, goods):
        return sum((rows[agent][g] for g in goods), Fraction(0))

    return value, lambda open_bags: open_bags[0]


def _hard2_reference(fam):
    """The hard2 script of ``ScriptedHard2Responder``'s docstring, re-stated."""
    n, m, row = fam.n, fam.instance.num_goods, fam.instance.valuations[0]
    rich = fam.k1 + fam.k2
    cap = (n - rich) * fam.t + 2
    first_round = [
        frozenset(j - 1 for j in positions if j <= m)
        for positions in ({1}, {n, n + 1}, {2 * n - 1, 2 * n, 2 * n + 1}, {1, 2 * n + 1})
    ]
    last = [-1]

    def value(agent, goods):
        if agent == fam.target_agent:
            return sum((row[g] for g in goods), Fraction(0))
        if goods in first_round:
            return Fraction(0)
        if agent < rich:
            return Fraction(int(any(g < rich for g in goods)))
        return Fraction(int(sum(1 for g in goods if g >= 2 * n) > cap))

    def choose_bag(open_bags):
        later = [b for b in open_bags if b > last[0]]
        last[0] = later[0] if later else open_bags[0]
        return last[0]

    return value, choose_bag


class _CountingTruthful(TruthfulResponder):
    queries = 0

    def value(self, agent, goods):
        self.queries += 1
        return super().value(agent, goods)


class _CountingHard2(ScriptedHard2Responder):
    queries = 0

    def value(self, agent, goods):
        self.queries += 1
        return super().value(agent, goods)


class _LastBagHard2(_CountingHard2):
    """The hard2 answers, with every filler in the highest-index open bag, so
    that a bag's filler count passes the script's cap."""

    def choose_bag(self, open_bags):
        return open_bags[-1]


def _outcome(run):
    try:
        return run()
    except GuaranteeViolation as exc:
        return ("GuaranteeViolation", str(exc))


def _check_against_reference(responder, reference, thresholds, ranking):
    value, choose_bag = reference
    n, m = responder.num_agents, responder.num_goods
    expected = _outcome(lambda: reference_rbf(n, m, value, choose_bag, thresholds, ranking))
    got = _outcome(lambda: (*run_rbf(responder, thresholds, ranking), responder.queries))
    if isinstance(expected[0], Allocation):  # a run, not an error
        alloc, transcript, all_queries, fresh_queries, facts = expected
        assert responder.queries <= all_queries
        # The transcripts are compared below, so the run's derived facts are these.
        assert (transcript.phase2_agents, transcript.phase2_goods, transcript.satisfied,
                transcript.ran_out_of_goods) == facts
        expected = (alloc, transcript, fresh_queries)
    assert got == expected


def _random_cases(count):
    rng = random.Random(20)
    for case in range(count):
        n = rng.randint(2, 8)
        m = rng.randint(n, 6 * n)
        inst = Instance.from_rows(unit_share_rows(rng, n, m))
        ranks = list(range(n))
        rng.shuffle(ranks)
        if case % 2:
            thresholds = priority_thresholds(n)
        else:
            tau = rng.choice([Fraction(1), Fraction(9, 10), Fraction(3, 4) + Fraction(1, 12 * n), Fraction(1, 2)])
            thresholds = ThresholdList.constant(n, tau)
        yield pytest.param(inst, thresholds, PriorityRanking(tuple(ranks)), id=f"case{case}-n{n}-m{m}")


@pytest.mark.parametrize("inst, thresholds, ranking", _random_cases(240))
def test_truthful_runs_match_the_reference(inst, thresholds, ranking):
    _check_against_reference(_CountingTruthful(inst), _truthful_reference(inst), thresholds, ranking)


def _hard2_cases():
    for n in range(2, 7):
        for k1 in range(1, n // 2 + 1):
            for k2 in range(0, n - 2 * k1 + 1):
                for i in range(k1 + k2 + 1, n + 1):
                    for t in (3, 4):
                        yield n, i, k1, k2, t


@pytest.mark.parametrize("n, i, k1, k2, t", list(_hard2_cases()))
def test_hard2_scripts_match_the_reference(n, i, k1, k2, t):
    fam = gen_hard2_responders(n, i, k1, k2, t)
    default = min(Fraction(1), fam.alpha + 3 * fam.epsilon)  # the demo's thresholds
    for thresholds in (
        ThresholdList((Fraction(1),) * (i - 1) + (default,) * (n - i + 1)),
        ThresholdList.constant(n, 1),
        ThresholdList.constant(n, Fraction(1, 3)),
    ):
        for ranking in (PriorityRanking.identity(n), PriorityRanking.rotation(n, 1)):
            _check_against_reference(_CountingHard2(fam), _hard2_reference(fam), thresholds, ranking)
            value, _ = _hard2_reference(fam)
            last_bag = (value, lambda open_bags: open_bags[-1])
            _check_against_reference(_LastBagHard2(fam), last_bag, thresholds, ranking)
