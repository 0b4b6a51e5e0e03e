"""Bag filling: round mechanics, early termination, end-to-end guarantee."""

import random
from fractions import Fraction

import pytest

from mmskit import (
    GuaranteeViolation,
    Instance,
    InputError,
    bundle_value,
    mms,
    oracle,
    ordinal,
    run_1_out_of_d,
    run_ordinal,
)
from mmskit.adversarial import gen_ordinal_tight
from mmskit.core import scale_row
from mmskit.verify import AgentCheck, check_transcript, check_witness, unit_share_violations

from _instances import bag_owners, fills, random_instance, random_normalized_ordered


def test_rejects_unordered_input():
    inst = Instance.from_rows([[1, 2, 3, 4]])
    with pytest.raises(InputError):
        run_ordinal(inst)


def test_rejects_too_few_goods():
    inst = Instance.from_rows([[2, 1], [2, 1]])
    with pytest.raises(InputError):
        run_ordinal(inst)


def test_all_bags_liked_initially_means_no_filling():
    # Identical agents, 2n goods worth 1/2 each: every initial bag is worth 1.
    n = 3
    inst = Instance.from_rows([[Fraction(1, 2)] * (2 * n)] * n)
    alloc, tr = run_ordinal(inst)
    assert fills(tr) == ()
    assert not tr.ran_out_of_goods
    assert all(tr.satisfied)
    assert bag_owners(tr) == (0, 1, 2)


def test_initial_bag_composition():
    n = 4
    inst, _ = random_normalized_ordered(random.Random(0), n, 2 * n, d=n)
    _, tr = run_ordinal(inst)
    assert tr.initial_bags == tuple(
        frozenset({k, 2 * n - 1 - k}) for k in range(n)
    )


def test_fill_goods_consumed_in_increasing_index_order():
    rng = random.Random(1)
    for _ in range(20):
        n = rng.randint(2, 5)
        m = rng.randint(2 * n, 2 * n + 6)
        inst, wits = random_normalized_ordered(rng, n, m, d=4 * ((n + 2) // 3))
        alloc, tr = run_ordinal(inst)
        consumed = [g for _, g in fills(tr)]
        assert consumed == sorted(consumed)
        bags = [b for b, _ in fills(tr)]
        assert bags == sorted(bags)


def test_assigned_bags_meet_the_unit_target():
    rng = random.Random(2)
    for _ in range(20):
        n = rng.randint(2, 5)
        d = 4 * ((n + 2) // 3)
        m = rng.randint(max(2 * n, d), 2 * n + 6)
        inst, wits = random_normalized_ordered(rng, n, m, d=d)
        assert unit_share_violations(inst, d) == ()
        assert all(check_witness(inst, i, w) == () for i, w in enumerate(wits))
        alloc, tr = run_ordinal(inst)
        assert not tr.ran_out_of_goods
        for agent in bag_owners(tr):
            assert bundle_value(inst, agent, alloc.bundles[agent]) >= 1


def test_filled_bags_were_liked_by_nobody_still_waiting():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(2, 5)
        d = 4 * ((n + 2) // 3)
        m = rng.randint(max(2 * n, d), 2 * n + 6)
        inst, _ = random_normalized_ordered(rng, n, m, d=d)
        _, tr = run_ordinal(inst)
        filled = {b for b, _ in fills(tr)}
        for k in filled:
            served_before = {a for a in bag_owners(tr)[:k] if a is not None}
            waiting = set(range(n)) - served_before
            assert all(
                bundle_value(inst, i, tr.initial_bags[k]) < 1 for i in waiting
            )


def test_leftover_suffix_lands_in_last_bag():
    # One agent per bag satisfied immediately, plus a tail of small goods.
    n = 2
    rows = [[Fraction(1, 2)] * 4 + [Fraction(1, 13)] * 5] * 2
    inst = Instance.from_rows(rows)
    alloc, tr = run_ordinal(inst)
    assert not tr.ran_out_of_goods
    assert alloc.bundles[bag_owners(tr)[n - 1]] == frozenset({1, 2}) | frozenset(range(4, 9))


def _assert_well_formed(inst, alloc, tr):
    # An ordinal transcript passes the threshold allocator's structure check,
    # and its initial bags and fills rebuild the allocation; after a complete
    # run, the last bag also holds every good no event names.
    n, m = inst.num_agents, inst.num_goods
    assert check_transcript(tr) == ()
    assert tr.reductions == ()
    assert (tr.phase2_agents, tr.phase2_goods) == (frozenset(range(n)), frozenset(range(m)))
    owners = bag_owners(tr)
    assert sorted(owners) == list(range(n))
    bags = [set(b) for b in tr.initial_bags]
    for bag, good in fills(tr):
        bags[bag].add(good)
    if not tr.ran_out_of_goods:
        bags[-1] |= set(range(m)) - set().union(*bags)
    assert [frozenset(b) for b in bags] == [alloc.bundles[a] for a in owners]
    leftover = {e.agent for e in tr.bag_events if e.kind == "leftover"}
    assert leftover == {i for i in range(n) if not tr.satisfied[i]}
    assert bool(leftover) == tr.ran_out_of_goods


def test_transcripts_of_random_ordered_normalized_instances_are_well_formed():
    rng = random.Random(6)
    for _ in range(60):
        n = rng.randint(1, 6)
        d = rng.choice((n, 4 * ((n + 2) // 3)))
        m = rng.randint(max(2 * n, d), 2 * n + 8)
        inst, wits = random_normalized_ordered(rng, n, m, d=d)
        assert unit_share_violations(inst, d) == ()
        assert all(check_witness(inst, i, w) == () for i, w in enumerate(wits))
        _assert_well_formed(inst, *run_ordinal(inst))


def test_transcripts_of_pipeline_runs_pass_the_structure_check():
    rng = random.Random(7)
    checked = 0
    for _ in range(300):
        n = rng.randint(2, 6)
        result = run_1_out_of_d(random_instance(rng, n, rng.randint(n, 10)))
        if result.transcript is not None:
            assert check_transcript(result.transcript) == ()
            assert result.transcript.reductions == () and all(result.transcript.satisfied)
            checked += 1
    assert checked >= 150


def test_determinism():
    inst, wits = random_normalized_ordered(random.Random(4), 4, 10, d=8)
    first = run_ordinal(inst)
    second = run_ordinal(inst)
    assert first[1] == second[1]


# ---------------------------------------------------------------------------
# Tight family behaviour


def test_tight_family_terminates_early_with_short_bag():
    for n in (2, 3, 5, 8):
        fam = gen_ordinal_tight(n)
        alloc, tr = run_ordinal(fam.instance)
        assert tr.ran_out_of_goods
        owner = bag_owners(tr)[n - 1]
        short = bundle_value(fam.instance, owner, alloc.bundles[owner])
        assert short == 1 - Fraction(1, 3 * n)


# ---------------------------------------------------------------------------
# Full pipeline


def test_single_agent_gets_everything():
    inst = Instance.from_rows([[3, 1, 4, 1, 5]])
    result = run_1_out_of_d(inst)
    assert result.allocation.bundles[0] == frozenset(range(5))


def test_two_agents_two_goods_share_target_is_zero():
    inst = Instance.from_rows([[1, 1], [1, 1]])
    result = run_1_out_of_d(inst)
    assert result.d == 4
    for c in result.report:
        assert c.target == 0 and c.ok


@pytest.mark.parametrize(
    "n, zero_share_agents",
    [(4, ()), (5, ()), (5, (2,)), (4, (1, 3))],
    ids=["n4-clones", "n5-clones", "n5-one-zero-share", "n4-smaller-d-run"],
)
def test_pipeline_asks_each_row_and_d_of_the_oracle_at_most_once(monkeypatch, n, zero_share_agents):
    rng = random.Random(30 + n + len(zero_share_agents))
    d = 4 * ((n + 2) // 3)
    m = d + 2
    rows = [[rng.randint(1, 20) for _ in range(m)] for _ in range(n)]
    for i in zero_share_agents:  # fewer than d positive goods: a zero share
        rows[i][3:] = [0] * (m - 3)
    inst = Instance.from_rows(rows)
    real_mms = oracle.mms
    asked = []

    def recorder(inst, agent, d, goods=None, node_budget=None):
        ints, _ = inst.scaled[agent]
        asked.append((tuple(sorted(v for v in ints if v)), d))
        return real_mms(inst, agent, d, goods=goods, node_budget=node_budget)

    monkeypatch.setattr(oracle, "mms", recorder)
    result = run_1_out_of_d(inst)
    monkeypatch.setattr(oracle, "mms", real_mms)
    assert asked and len(asked) == len(set(asked))
    assert [c.target for c in result.report] == [mms(inst, i, d).value for i in range(n)]


def test_a_normalized_row_one_unit_off_is_a_guarantee_violation(monkeypatch):
    # run_1_out_of_d checks each witness on the instance normalize made; a
    # part that is not worth 1 there is a library bug, not bad input.
    real_normalize = ordinal.normalize

    def one_unit_off(inst, d, node_budget=None):
        normalized, results = real_normalize(inst, d, node_budget)
        (ints, scale), *rest = normalized.scaled
        bumped = scale_row([(v + (g == 0), scale) for g, v in enumerate(ints)])
        return Instance((bumped, *rest), normalized.num_goods), results

    rng = random.Random(8)
    inst = Instance.from_rows([[rng.randint(1, 20) for _ in range(8)] for _ in range(3)])
    monkeypatch.setattr(ordinal, "normalize", one_unit_off)
    with pytest.raises(GuaranteeViolation, match=r"^normalized agent 0's witness part worth \d+/\d+ != 1$"):
        run_1_out_of_d(inst)


def test_pipeline_guarantee_on_random_instances():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(1, 4)
        m = rng.randint(n, 9)
        inst = random_instance(rng, n, m)
        result = run_1_out_of_d(inst)
        if result.transcript is not None:
            assert not result.transcript.ran_out_of_goods
        for i in range(n):
            share = mms(inst, i, result.d).value
            assert bundle_value(inst, i, result.allocation.bundles[i]) >= share


# Fixed instances through every branch of the reduction, pinned to the
# allocations and (value, share) pairs the pipeline produced when recorded.
_PINNED = {
    "cloned-agents": (
        [[5, 3, 3, 2, 2, 1, 1], [1, 4, 2, 6, 3, 3, 1]],
        4,
        ([[0, 4], [3, 5]], [1, 2, 6]),
        [("7", "4"), ("9", "4")],
    ),
    "dummy-goods": (
        [[3, 3, 2, 2, 1], [1, 2, 3, 4, 5], [4, 1, 4, 1, 4]],
        4,
        ([[0], [2, 3], [1, 4]], []),
        [("3", "2"), ("7", "3"), ("5", "2")],
    ),
    "zero-share-agent": (
        [
            [9, 7, 5, 4, 4, 3, 2, 2, 1, 1],
            [1, 2, 3, 4, 5, 6, 7, 8, 9, 1],
            [0, 0, 0, 5, 5, 5, 0, 0, 0, 0],
            [2, 2, 2, 2, 3, 3, 3, 3, 1, 1],
            [6, 0, 6, 1, 2, 3, 1, 2, 3, 4],
        ],
        8,
        ([[0], [3], [], [2, 9], [4, 8]], [1, 5, 6, 7]),
        [("9", "3"), ("4", "3"), ("0", "0"), ("3", "2"), ("5", "2")],
    ),
    "d-run-below-d-target": (
        [
            [4, 4, 3, 3, 2, 2, 1, 1, 1],
            [1, 1, 1, 2, 2, 3, 3, 4, 4],
            [0, 5, 0, 5, 0, 5, 0, 5, 0],
            [3, 1, 3, 1, 3, 1, 3, 1, 3],
        ],
        8,
        ([[0, 1], [7, 8], [], [2, 3, 4, 5, 6]], []),
        [("8", "1"), ("8", "1"), ("0", "0"), ("11", "1")],
    ),
    "fractions-and-twins": (
        [
            ["1/2", "1/3", "1/4", "1/5", "1/6", "1/7", "1/8"],
            ["1/2", "1/3", "1/4", "1/5", "1/6", "1/7", "1/8"],
            ["2/3", 0, "3/2", 1, "5/4", "1/9", 2],
        ],
        4,
        ([[0, 4], [1, 3], [2, 5, 6]], []),
        [("2/3", "11/30"), ("8/15", "11/30"), ("65/18", "49/36")],
    ),
}


@pytest.mark.parametrize("name", sorted(_PINNED))
def test_pipeline_output_is_pinned(name):
    rows, d, (bundles, unallocated), guarantees = _PINNED[name]
    result = run_1_out_of_d(Instance.from_rows(rows))
    assert result.d == d
    assert result.allocation.bundles == tuple(frozenset(b) for b in bundles)
    assert result.allocation.unallocated == frozenset(unallocated)
    assert result.report == tuple(
        AgentCheck(i, Fraction(v), Fraction(t), True) for i, (v, t) in enumerate(guarantees)
    )
