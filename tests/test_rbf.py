"""Threshold allocator: reductions, bag filling, transcripts."""

import random
from fractions import Fraction

import pytest

from mmskit import (
    Bag,
    HardInstanceSpec,
    Instance,
    InputError,
    PriorityRanking,
    ThresholdList,
    TruthfulResponder,
    bundle_value,
    check_t_mms,
    check_transcript,
    cyclic_rotation_distribution,
    demonstrate_failure,
    gen_hard2_responders,
    priority_thresholds,
    run_rbf,
    run_rbf_truthful,
)
from mmskit.adversarial import ScriptedHard2Responder
from mmskit.cli import allocation_to_json, transcript_to_json
from mmskit.verify import check_bag_pair_bounds

from _instances import random_normalized_ordered, unit_share_rows


# ---------------------------------------------------------------------------
# Built-in thresholds


def test_thresholds_rank_one_gets_full_share():
    for n in (1, 2, 7, 40):
        assert priority_thresholds(n).taus[0] == 1


def test_thresholds_n5_rank5():
    # max(10/14, 3/4 + 1/60) = max(5/7, 23/30): cross-multiplying,
    # 5*30 = 150 < 7*23 = 161, so the floor wins.
    assert priority_thresholds(5).taus[4] == Fraction(23, 30)


def test_thresholds_non_increasing_for_many_sizes():
    for n in list(range(1, 200)) + [1000, 10000]:
        taus = priority_thresholds(n).taus
        assert all(a >= b for a, b in zip(taus, taus[1:]))


# ---------------------------------------------------------------------------
# Reductions


def _unit_instance_with_big_good(n_agents: int = 2) -> Instance:
    # Good 0 alone is a full unit part; four quarter goods make up the rest.
    row = [Fraction(1)] + [Fraction(1, 4)] * 4
    return Instance.from_rows([row] * n_agents)


def test_single_big_good_triggers_type_1():
    inst = _unit_instance_with_big_good()
    run = run_rbf_truthful(inst, priority_thresholds(2))
    alloc, tr = run.allocation, run.transcript
    assert tr.reductions[0].type == 1
    assert tr.reductions[0].agent == 0
    assert alloc.bundles[0] == frozenset({0})


def test_reduction_goes_to_smallest_rank():
    inst = _unit_instance_with_big_good()
    ranking = PriorityRanking((1, 0))  # agent 1 is most important
    run = run_rbf_truthful(inst, priority_thresholds(2), ranking)
    alloc, tr = run.allocation, run.transcript
    assert tr.reductions[0].agent == 1


def test_threshold_validation():
    inst, _ = random_normalized_ordered(random.Random(0), 2, 5)
    with pytest.raises(InputError):
        run_rbf_truthful(inst, ThresholdList((Fraction(1), Fraction(0))))
    # The lengths are checked against the responder's number of agents.
    with pytest.raises(InputError, match="^expected 2 thresholds, got 1$"):
        run_rbf_truthful(inst, ThresholdList((Fraction(1),)))
    with pytest.raises(InputError, match="^ranking covers 3 agents, expected 2$"):
        run_rbf_truthful(inst, ThresholdList.constant(2, 1), PriorityRanking.identity(3))


def test_truthful_input_validation():
    unordered = Instance.from_rows([[1, 2], [2, 1]])
    not_unit = Instance.from_rows([[2, 1], [2, 1]])
    for inst in (unordered, not_unit):
        with pytest.raises(InputError):
            TruthfulResponder(inst)  # before any run
        with pytest.raises(InputError):
            run_rbf_truthful(inst, ThresholdList.constant(2, Fraction(1, 2)))


def test_a_truthful_run_holds_its_unit_share_report_and_structure_check():
    inst, _ = random_normalized_ordered(random.Random(9), 3, 8)
    thresholds, ranking = priority_thresholds(3), PriorityRanking.rotation(3, 1)
    run = run_rbf_truthful(inst, thresholds, ranking)
    assert run.report == check_t_mms(inst, run.allocation, ranking, thresholds, shares=(1,) * 3)
    assert run.structure == check_transcript(run.transcript)
    assert run.report.all_ok and run.structure.ok


def test_a_built_in_threshold_miss_on_a_short_share_is_an_input_error():
    row = ["2/3", "2/3", "3/5", "3/5", "2/5", "1/15"]  # each 3-share is 11/15
    inst = Instance.from_rows([row] * 3)
    with pytest.raises(InputError, match="^agent 0's 3-share is 11/15, below a unit share$"):
        run_rbf_truthful(inst, priority_thresholds(3))


# ---------------------------------------------------------------------------
# Full runs on constructed unit-share instances


def test_default_thresholds_satisfy_every_rank():
    rng = random.Random(1)
    for _ in range(60):
        n = rng.randint(1, 6)
        m = rng.randint(max(n, 2), 12)
        inst, _ = random_normalized_ordered(rng, n, m)
        thresholds = priority_thresholds(n)
        for shift in (0, rng.randrange(n)):
            ranking = PriorityRanking.rotation(n, shift)
            run = run_rbf_truthful(inst, thresholds, ranking)
            alloc, tr = run.allocation, run.transcript
            by_rank = ranking.agents_by_rank()
            for rank, agent in enumerate(by_rank):
                got = bundle_value(inst, agent, alloc.bundles[agent])
                assert got >= thresholds.taus[rank]
            report = check_transcript(tr)
            assert report.ok, report.violations


def test_transcript_regex_and_counts():
    rng = random.Random(2)
    for _ in range(40):
        n = rng.randint(2, 6)
        m = rng.randint(n, 12)
        inst, _ = random_normalized_ordered(rng, n, m)
        tr = run_rbf_truthful(inst, priority_thresholds(n)).transcript
        assert check_transcript(tr).ok
        # Re-checking the same facts directly: the goods/agents counters in
        # successive reduction events are consistent.
        for before, after in zip(tr.reductions, tr.reductions[1:]):
            assert after.agents_before == before.agents_before - 1
            assert after.goods_before == before.goods_before - len(before.bundle)


def test_bag_assignment_prefers_smallest_rank():
    # Two identical agents, no reductions possible at tau: both like bag 0
    # once filled; the smaller rank must win it.
    inst, _ = random_normalized_ordered(random.Random(3), 2, 6)
    tau = ThresholdList.constant(2, Fraction(99, 100))
    try:
        run = run_rbf_truthful(inst, tau)
        alloc, tr = run.allocation, run.transcript
    except Exception:
        pytest.skip("degenerate draw")
    assigns = [e for e in tr.bag_events if e.kind in ("assign", "leftover")]
    if len(assigns) >= 2 and all(e.kind == "assign" for e in assigns):
        assert assigns[0].agent == 0


def test_satisfied_flags_match_values():
    rng = random.Random(4)
    for _ in range(30):
        n = rng.randint(1, 5)
        m = rng.randint(max(n, 2), 10)
        inst, _ = random_normalized_ordered(rng, n, m)
        thresholds = priority_thresholds(n)
        run = run_rbf_truthful(inst, thresholds)
        alloc, tr = run.allocation, run.transcript
        for agent in range(n):
            if tr.satisfied[agent]:
                assert bundle_value(inst, agent, alloc.bundles[agent]) >= thresholds.taus[agent]


def test_determinism_for_fixed_inputs():
    inst, _ = random_normalized_ordered(random.Random(5), 4, 9)
    first = run_rbf_truthful(inst, priority_thresholds(4))
    second = run_rbf_truthful(inst, priority_thresholds(4))
    assert first == second


def test_uniform_floor_thresholds_are_always_met():
    # tau_i = 3/4 + 1/(12n) for every rank.
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(1, 5)
        m = rng.randint(max(n, 2), 10)
        inst, _ = random_normalized_ordered(rng, n, m)
        tau = Fraction(3, 4) + Fraction(1, 12 * n)
        alloc = run_rbf_truthful(inst, ThresholdList.constant(n, tau)).allocation
        for agent in range(n):
            assert bundle_value(inst, agent, alloc.bundles[agent]) >= tau


def test_harmonic_thresholds_are_always_met():
    # tau_i = 2n/(2n+i-1) per rank, without the uniform floor.
    rng = random.Random(8)
    for _ in range(30):
        n = rng.randint(1, 5)
        m = rng.randint(max(n, 2), 10)
        inst, _ = random_normalized_ordered(rng, n, m)
        taus = ThresholdList(tuple(Fraction(2 * n, 2 * n + i - 1) for i in range(1, n + 1)))
        alloc = run_rbf_truthful(inst, taus).allocation
        for agent in range(n):
            assert bundle_value(inst, agent, alloc.bundles[agent]) >= taus.taus[agent]


def test_generated_unit_share_instances_have_share_exactly_one():
    from mmskit import mms

    rng = random.Random(9)
    for _ in range(10):
        n = rng.randint(2, 4)
        m = rng.randint(n, 8)
        inst, _ = random_normalized_ordered(rng, n, m)
        for agent in range(n):
            assert mms(inst, agent, n).value == 1


# ---------------------------------------------------------------------------
# Structural fact about bag pairs


def test_bag_pair_bounds_on_unit_share_instances():
    rng = random.Random(6)
    for _ in range(60):
        n = rng.randint(1, 6)
        m = rng.randint(2 * n, 2 * n + 5)
        inst, _ = random_normalized_ordered(rng, n, m)
        assert check_bag_pair_bounds(inst) == ()


# ---------------------------------------------------------------------------
# Bags


def test_a_grown_bag_keeps_one_sum_per_chain():
    ints = [5, 4, 3, 3, 2, 2, 1, 1, 1, 0]
    stored = {}
    bag = Bag([0, 1])
    assert bag.total(ints, stored) == 9 and stored == {}  # a root bag is summed, not kept
    for g in range(2, 10):
        bag = bag.add(g)
        assert bag.total(ints, stored) == sum(ints[: g + 1])
        assert stored == {bag: sum(ints[: g + 1])}  # the parent's sum was dropped
    assert bag.goods == frozenset(range(10)) and bag.size == 10
    # A bag whose parent holds no stored sum is summed over its goods.
    other = Bag([0, 3]).add(4).add(6)
    assert other.total(ints, {}) == 11 and other.goods == {0, 3, 4, 6}
    # So is a grandchild queried before its parent, with its grandparent
    # stored; the grandparent's sum stays, and the parent's is computed from it.
    stored = {}
    grandparent = Bag([0, 3]).add(4)
    assert grandparent.total(ints, stored) == 10
    parent = grandparent.add(6)
    grandchild = parent.add(9)
    assert grandchild.total(ints, stored) == 11
    assert stored == {grandparent: 10, grandchild: 11}
    assert parent.total(ints, stored) == 11 and stored == {parent: 11, grandchild: 11}
    assert grandchild.add(10).total(ints + [7], stored) == 18
    for stored in ({grandparent: 10}, {grandchild: 11}):  # summed over its goods, or from its parent
        with pytest.raises(InputError, match="^good must be <= 9, got 10$"):
            grandchild.add(10).total(ints, stored)
    # A good is added above the bag's goods, so none is counted twice.
    for good in (0, 5, 6):
        with pytest.raises(InputError, match=f"^good must be above the bag's largest good 6, got {good}$"):
            other.add(good)


def test_a_grown_bag_is_first_asked_about_right_after_its_parent(monkeypatch):
    # Phase 2 grows a bag only after every waiting agent was asked about
    # every open bag, so a grown bag's first query finds its parent's sum
    # stored, or has a root (never stored) as its parent. A change of query
    # order that leaves gaps would make Bag.total sum whole bags again.
    firsts = {"stored": 0, "root": 0, "other": 0}
    total = Bag.total

    def spy(bag, ints, stored):
        if bag.parent is not None and bag not in stored:
            key = "stored" if bag.parent in stored else "root" if bag.parent.parent is None else "other"
            firsts[key] += 1
        return total(bag, ints, stored)

    monkeypatch.setattr(Bag, "total", spy)
    rng = random.Random(21)
    for n in list(range(2, 13)) + [30]:
        for m in (2 * n, 3 * n + 2, 4 * n):
            cyclic_rotation_distribution(Instance.from_rows(unit_share_rows(rng, n, m)), priority_thresholds(n))
    for n in range(4, 15):
        for i in range(3, n + 1):
            demonstrate_failure(HardInstanceSpec("hard1", n, i=i))
        rich = n // 3
        for k1 in range(1, rich + 1):
            for i in (rich + 1, n):
                demonstrate_failure(HardInstanceSpec("hard2", n, i=i, k1=k1, k2=rich - k1, t=3))
    assert firsts["other"] == 0
    assert firsts["stored"] > 10_000 and firsts["root"] > 1_000


# ---------------------------------------------------------------------------
# Custom responders


class _FlatResponder:
    """Likes nothing: forces pure bag filling into the leftover path."""

    def __init__(self, n, m, pick=lambda open_bags: open_bags[0]):
        self.num_agents, self.num_goods = n, m
        self.choose_bag = pick

    def unit(self, agent):
        return 1

    def value(self, agent, goods):
        return 0


def test_scripted_runs_reach_the_leftover_path():
    n, m = 3, 8
    alloc, tr = run_rbf(_FlatResponder(n, m), ThresholdList.constant(n, Fraction(1, 2)))
    assert tr.ran_out_of_goods
    assert not any(tr.satisfied)
    assert frozenset().union(*alloc.bundles, alloc.unallocated) == frozenset(range(m))


def test_fill_bag_chooser_override():
    n, m = 2, 8
    responder = _FlatResponder(n, m, pick=lambda open_bags: open_bags[-1])
    _, tr = run_rbf(responder, ThresholdList.constant(n, Fraction(1, 2)))
    assert [e.bag for e in tr.bag_events if e.kind == "fill"] == [1] * (m - 2 * n)


def test_a_closed_bag_is_an_input_error():
    responder = _FlatResponder(2, 8, pick=lambda open_bags: 7)
    with pytest.raises(InputError, match="^responder picked a closed bag 7$"):
        run_rbf(responder, ThresholdList.constant(2, Fraction(1, 2)))


# Fixed runs through each path of the engine, pinned to the transcript and
# allocation JSON it produced when recorded. The 4x9 instance takes
# reductions of types 1, 4, 3, 2 and, under a rotated ranking, 1, 1, 2, 3;
# the 2x8 instance goes straight to bag filling.
_FOUR_BY_NINE = Instance.from_rows(
    [
        ["1", "7/12", "3/7", "5/12", "7/18", "7/18", "5/14", "2/9", "3/14"],
        ["6/7", "4/5", "8/11", "9/23", "8/23", "3/11", "6/23", "1/5", "1/7"],
        ["1", "3/4", "7/11", "5/12", "4/11", "1/3", "1/4", "1/6", "1/12"],
        ["1", "3/4", "2/3", "2/5", "1/3", "1/4", "1/5", "1/5", "1/5"],
    ]
)
_TWO_BY_EIGHT = Instance.from_rows(
    [
        ["1/2", "1/2", "9/31", "8/31", "6/31", "4/31", "3/31", "1/31"],
        ["3/8", "3/8", "2/7", "1/4", "5/21", "5/21", "1/7", "2/21"],
    ]
)


class _LastBagResponder(TruthfulResponder):
    """Truthful answers; each loose good goes into the highest-index open bag."""

    def choose_bag(self, open_bags):
        return open_bags[-1]


_PINNED_INPUTS = {
    "four-types": lambda: run_rbf(TruthfulResponder(_FOUR_BY_NINE), priority_thresholds(4)),
    "rotated": lambda: run_rbf(
        TruthfulResponder(_FOUR_BY_NINE), priority_thresholds(4), PriorityRanking.rotation(4, 1)
    ),
    "leftover": lambda: run_rbf(TruthfulResponder(_TWO_BY_EIGHT), ThresholdList.constant(2, 1)),
    "custom-choose-bag": lambda: run_rbf(_LastBagResponder(_TWO_BY_EIGHT), priority_thresholds(2)),
    # The demo's default thresholds for hard2 at n = 3, i = 2, k1 = 1, k2 = 0, t = 3.
    "hard2": lambda: run_rbf(
        ScriptedHard2Responder(gen_hard2_responders(3, 2, 1, 0, 3)), ThresholdList.constant(3, 1)
    ),
}

_PINNED_RUNS = {
    "four-types": {
        "allocation": {"bundles": [[0], [1, 7], [4, 5, 6], [2, 3]], "unallocated": [8]},
        "transcript": {
            "agents": 4,
            "goods": 9,
            "reductions": [
                {"agent": 0, "agentsBefore": 4, "bundle": [0], "goodsBefore": 9, "type": 1},
                {"agent": 1, "agentsBefore": 3, "bundle": [1, 7], "goodsBefore": 8, "type": 4},
                {"agent": 2, "agentsBefore": 2, "bundle": [4, 5, 6], "goodsBefore": 6, "type": 3},
                {"agent": 3, "agentsBefore": 1, "bundle": [2, 3], "goodsBefore": 3, "type": 2},
            ],
            "bagEvents": [],
            "initialBags": [],
            "phase2Agents": [],
            "phase2Goods": [8],
            "ranOutOfGoods": False,
            "satisfied": [True, True, True, True],
        },
    },
    "rotated": {
        "allocation": {"bundles": [[2, 5, 6], [1], [3, 4], [0]], "unallocated": [7, 8]},
        "transcript": {
            "agents": 4,
            "goods": 9,
            "reductions": [
                {"agent": 3, "agentsBefore": 4, "bundle": [0], "goodsBefore": 9, "type": 1},
                {"agent": 1, "agentsBefore": 3, "bundle": [1], "goodsBefore": 8, "type": 1},
                {"agent": 2, "agentsBefore": 2, "bundle": [3, 4], "goodsBefore": 7, "type": 2},
                {"agent": 0, "agentsBefore": 1, "bundle": [2, 5, 6], "goodsBefore": 5, "type": 3},
            ],
            "bagEvents": [],
            "initialBags": [],
            "phase2Agents": [],
            "phase2Goods": [7, 8],
            "ranOutOfGoods": False,
            "satisfied": [True, True, True, True],
        },
    },
    "leftover": {
        "allocation": {"bundles": [[0, 3, 4, 5], [1, 2, 6, 7]], "unallocated": []},
        "transcript": {
            "agents": 2,
            "goods": 8,
            "reductions": [],
            "bagEvents": [
                {"bag": 0, "good": 4, "kind": "fill"},
                {"bag": 0, "good": 5, "kind": "fill"},
                {"agent": 0, "bag": 0, "kind": "assign"},
                {"bag": 1, "good": 6, "kind": "fill"},
                {"bag": 1, "good": 7, "kind": "fill"},
                {"agent": 1, "bag": 1, "kind": "leftover"},
            ],
            "initialBags": [[0, 3], [1, 2]],
            "phase2Agents": [0, 1],
            "phase2Goods": [0, 1, 2, 3, 4, 5, 6, 7],
            "ranOutOfGoods": True,
            "satisfied": [True, False],
        },
    },
    "custom-choose-bag": {
        "allocation": {"bundles": [[0, 3, 5, 6, 7], [1, 2, 4]], "unallocated": []},
        "transcript": {
            "agents": 2,
            "goods": 8,
            "reductions": [],
            "bagEvents": [
                {"bag": 1, "good": 4, "kind": "fill"},
                {"agent": 1, "bag": 1, "kind": "assign"},
                {"bag": 0, "good": 5, "kind": "fill"},
                {"bag": 0, "good": 6, "kind": "fill"},
                {"bag": 0, "good": 7, "kind": "fill"},
                {"agent": 0, "bag": 0, "kind": "assign"},
            ],
            "initialBags": [[0, 3], [1, 2]],
            "phase2Agents": [0, 1],
            "phase2Goods": [0, 1, 2, 3, 4, 5, 6, 7],
            "ranOutOfGoods": False,
            "satisfied": [True, True],
        },
    },
    "hard2": {
        "allocation": {"bundles": [[0, 5], [1, 4, 6, 8, 10, 12, 14, 16], [2, 3, 7, 9, 11, 13, 15, 17]], "unallocated": []},
        "transcript": {
            "agents": 3,
            "goods": 18,
            "reductions": [],
            "bagEvents": [
                {"agent": 0, "bag": 0, "kind": "assign"},
                {"bag": 1, "good": 6, "kind": "fill"},
                {"bag": 2, "good": 7, "kind": "fill"},
                {"bag": 1, "good": 8, "kind": "fill"},
                {"bag": 2, "good": 9, "kind": "fill"},
                {"bag": 1, "good": 10, "kind": "fill"},
                {"bag": 2, "good": 11, "kind": "fill"},
                {"bag": 1, "good": 12, "kind": "fill"},
                {"bag": 2, "good": 13, "kind": "fill"},
                {"bag": 1, "good": 14, "kind": "fill"},
                {"bag": 2, "good": 15, "kind": "fill"},
                {"bag": 1, "good": 16, "kind": "fill"},
                {"bag": 2, "good": 17, "kind": "fill"},
                {"agent": 1, "bag": 1, "kind": "leftover"},
                {"agent": 2, "bag": 2, "kind": "leftover"},
            ],
            "initialBags": [[0, 5], [1, 4], [2, 3]],
            "phase2Agents": [0, 1, 2],
            "phase2Goods": [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17],
            "ranOutOfGoods": True,
            "satisfied": [True, False, False],
        },
    },
}


@pytest.mark.parametrize("name", sorted(_PINNED_RUNS))
def test_transcripts_are_pinned(name):
    alloc, tr = _PINNED_INPUTS[name]()
    assert transcript_to_json(tr) == _PINNED_RUNS[name]["transcript"]
    assert allocation_to_json(alloc) == _PINNED_RUNS[name]["allocation"]
