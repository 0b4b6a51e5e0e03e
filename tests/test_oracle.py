"""Share oracle: exact values, witnesses, budget handling, cross-checks."""

import gc
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mmskit import (
    Instance,
    InputError,
    SearchBudgetExceeded,
    bundle_value,
    equivalence_expand,
    mms,
    oracle,
)
from mmskit.oracle import MAX_PARTS, mms_all

from _instances import random_instance, random_normalized_ordered
from _reference import dp_share, mms_naive


def _witness_is_valid(inst, agent, d, goods, result):
    assert result.witness.d == d
    assert result.witness.ground_set == frozenset(goods)
    part_values = [bundle_value(inst, agent, p) for p in result.witness.parts]
    assert min(part_values) == result.value


# ---------------------------------------------------------------------------
# Pinned examples


def test_single_bundle_takes_everything():
    inst = Instance.from_rows([[4, 7, 1]])
    res = mms(inst, 0, 1)
    assert res.value == 12
    assert res.witness.parts == (frozenset({0, 1, 2}),)


def test_three_goods_two_bundles():
    inst = Instance.from_rows([[3, 2, 1]])
    res = mms(inst, 0, 2)
    assert res.value == 3
    _witness_is_valid(inst, 0, 2, range(3), res)


def test_single_good_two_bundles_is_zero():
    inst = Instance.from_rows([[5]])
    assert mms(inst, 0, 2).value == 0
    assert mms_naive(inst, 0, 2).value == 0


def test_naive_pigeonhole_cases():
    inst = Instance.from_rows([[1, 1, 1]])
    assert mms_naive(inst, 0, 3).value == 1
    assert mms_naive(inst, 0, 4).value == 0
    # d == number of goods: forced singletons, so the min single value.
    inst2 = Instance.from_rows([[5, 2, 9]])
    assert mms_naive(inst2, 0, 3).value == 2


def test_goods_subset_restricts_the_search():
    inst = Instance.from_rows([[10, 3, 2, 1]])
    res = mms(inst, 0, 2, goods={1, 2, 3})
    assert res.value == 3
    _witness_is_valid(inst, 0, 2, {1, 2, 3}, res)


def test_naive_size_cap():
    inst = Instance.from_rows([[1] * 13])
    with pytest.raises(InputError):
        mms_naive(inst, 0, 2)


def test_budget_exhaustion_is_an_error_not_an_answer():
    rng = random.Random(5)
    inst = Instance.from_rows([[rng.randint(50, 100) for _ in range(14)]])
    with pytest.raises(SearchBudgetExceeded) as err:
        mms(inst, 0, 5, node_budget=10)
    assert err.value.budget == 10


def test_a_budget_error_names_the_agent_and_d():
    rng = random.Random(5)
    row = [rng.randint(50, 100) for _ in range(14)]
    inst = Instance.from_rows([[1] * 14, [1] * 14, row])
    with pytest.raises(SearchBudgetExceeded) as err:
        mms_all(inst, 5, node_budget=10)
    assert (err.value.budget, err.value.agent, err.value.d) == (10, 2, 5)
    assert str(err.value) == (
        "search budget of 10 nodes exhausted on agent 2's 5-share; raise the node budget to continue"
    )
    assert not hasattr(err.value, "nodes")


def test_a_seed_worth_the_floor_of_total_over_d_needs_no_search():
    """No part can exceed floor(total / d), so a seed worth that is optimal.

    The greedy seed of [3, 3, 2, 2, 1] at d = 2 is {3, 2, 1} and {3, 2},
    worth 5 = floor(11 / 2), and 2 does not divide 11. Mutation check:
    stopping only on a perfect split (``best_val * d == total``) makes the
    search run, and its first node exhausts the budget of 0.
    """
    res = mms(Instance.from_rows([[3, 3, 2, 2, 1]]), 0, 2, node_budget=0)
    assert res.value == 5
    assert res.witness.parts == (frozenset({0, 2, 4}), frozenset({1, 3}))


def test_the_integer_cut_solves_a_row_in_a_fiftieth_of_the_nodes():
    """14 goods at d = 3, total 634: the share is 211 = floor(634 / 3).

    The search takes 52 nodes; cutting only where the water-filling
    relaxation cannot reach ``best`` took 5104. Mutation check: without the
    short-parts test it takes 55 nodes, and without the floor stop 59.
    """
    row = [22, 74, 37, 12, 83, 87, 24, 10, 47, 22, 92, 29, 54, 41]
    res = mms(Instance.from_rows([row]), 0, 3, node_budget=52)
    assert res.value == 211
    assert res.witness.parts == (
        frozenset({0, 5, 7, 10}), frozenset({1, 4, 12}), frozenset({2, 3, 6, 8, 9, 11, 13}),
    )


def test_the_subset_sum_cut_solves_a_row_in_a_sixtieth_of_the_nodes():
    """14 goods at d = 4, total 612: the share is 152, one below 612 // 4.

    The search takes 19 nodes; without the subset-sum cut it takes 1199, all
    spent proving that no split reaches 153.
    """
    row = [100, 96, 84, 60, 44, 43, 41, 40, 31, 28, 17, 16, 11, 1]
    res = mms(Instance.from_rows([row]), 0, 4, node_budget=19)
    assert res.value == 152
    assert res.witness.parts == (
        frozenset({0, 7, 12, 13}), frozenset({1, 6, 11}), frozenset({2, 5, 9}), frozenset({3, 4, 8, 10}),
    )


class _CountingBudget(int):
    """A node budget that counts the search's ``nodes > budget`` checks, one
    per node: Python asks the right operand's reflected ``__lt__`` first when
    its type is a subclass of the left one's."""

    nodes = 0

    def __lt__(self, other):
        self.nodes += 1
        return int.__lt__(self, other)


def _search_with_bits(row, d, bits):
    """``oracle._search`` on the row's integer form with ``SUBSET_SUM_BITS``
    set to ``bits``: ((value, assignment), nodes)."""
    ints, _ = Instance.from_rows([row]).scaled[0]
    vals = tuple(sorted((v for v in ints if v), reverse=True))
    budget = _CountingBudget(oracle.DEFAULT_NODE_BUDGET)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "SUBSET_SUM_BITS", bits)
        return oracle._search(vals, d, budget), budget.nodes


_CUT_ROWS = st.one_of(
    st.lists(st.integers(1, 100), min_size=5, max_size=14),
    st.lists(st.builds(Fraction, st.integers(1, 30), st.integers(1, 9)), min_size=5, max_size=14),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(row=_CUT_ROWS, d=st.integers(2, 5))
def test_the_subset_sum_cut_keeps_the_result_and_never_adds_nodes(row, d):
    # With no bits allowed, no table is built and the search runs without the cut.
    cut, cut_nodes = _search_with_bits(row, d, oracle.SUBSET_SUM_BITS)
    plain, plain_nodes = _search_with_bits(row, d, 0)
    assert cut == plain
    assert cut_nodes <= plain_nodes


def test_subset_sum_tables_stay_under_their_bound():
    # A 3000-good row of small values fits; each table is the exact set of
    # subset sums up to cap. The 3000-good row of values up to 10**6 that
    # test_thousands_of_goods_end_in_a_result_or_a_budget_error searches at
    # d = 7 builds none.
    rng = random.Random(18)
    small = tuple(sorted((rng.randint(1, 3) for _ in range(3000)), reverse=True))
    cap = sum(small) // 7
    reach = oracle._subset_sums(small, cap)
    assert sum(r.bit_length() for r in reach) <= (len(small) + 1) * (cap + 1) <= oracle.SUBSET_SUM_BITS
    assert reach[0] == (2 << cap) - 1 and reach[-1] == 1
    assert reach[-3] == sum(1 << s for s in {0, small[-2], small[-1], small[-2] + small[-1]})
    rng = random.Random(17)
    big = sorted((rng.randint(1, 10**6) for _ in range(3000)), reverse=True)
    assert oracle._subset_sums(tuple(big), sum(big) // 7) is None


def test_d_and_index_validation():
    inst = Instance.from_rows([[1]])
    with pytest.raises(InputError):
        mms(inst, 0, 0)
    with pytest.raises(InputError):
        mms(inst, 0, 1, goods={3})


def test_d_is_capped_before_any_part_is_built():
    # Just over the cap, so that a broken cap fails fast.
    inst = Instance.from_rows([[1, 2, 3]])
    assert mms(inst, 0, MAX_PARTS).witness.d == MAX_PARTS
    assert mms_naive(inst, 0, MAX_PARTS).witness.d == MAX_PARTS
    assert len(equivalence_expand(inst, MAX_PARTS)[1]) == MAX_PARTS
    for build in (mms, mms_naive, lambda inst, _, d: equivalence_expand(inst, d)):
        with pytest.raises(InputError, match=f"d must be <= {MAX_PARTS}"):
            build(inst, 0, MAX_PARTS + 1)


# ---------------------------------------------------------------------------
# Properties


def test_oracle_matches_naive_on_random_instances():
    rng = random.Random(11)
    for _ in range(120):
        m = rng.randint(1, 10)
        d = rng.randint(1, 4)
        inst = random_instance(rng, 1, m)
        goods = [g for g in range(m) if rng.random() < 0.8]
        fast = mms(inst, 0, d, goods=goods)
        slow = mms_naive(inst, 0, d, goods=goods)
        assert fast.value == slow.value, (inst.valuations, d, goods)
        _witness_is_valid(inst, 0, d, goods, fast)
        _witness_is_valid(inst, 0, d, goods, slow)


def test_oracle_matches_naive_on_rational_rows():
    # Mixed denominators up to 9 exercise the search's LCM scaling.
    rng = random.Random(16)
    for _ in range(120):
        m = rng.randint(1, 10)
        d = rng.randint(1, 4)
        inst = Instance.from_rows(
            [[Fraction(rng.randint(0, 30), rng.randint(1, 9)) for _ in range(m)]]
        )
        fast = mms(inst, 0, d)
        slow = mms_naive(inst, 0, d)
        assert fast.value == slow.value, (inst.valuations, d)
        _witness_is_valid(inst, 0, d, range(m), fast)


def test_subset_dp_matches_naive_on_random_instances():
    # The DP reference against the enumerator, where both run, rational rows included.
    rng = random.Random(26)
    for _ in range(80):
        m = rng.randint(1, 9)
        d = rng.randint(1, 4)
        inst = Instance.from_rows([[Fraction(rng.randint(0, 12), rng.randint(1, 4)) for _ in range(m)]])
        assert dp_share(inst, 0, d) == mms_naive(inst, 0, d).value, (inst.valuations, d)


def test_oracle_matches_the_subset_dp_beyond_twelve_goods():
    # Beyond mms_naive's cap, where the oracle's pruning does most of its
    # work: two rows of small values (1..10) and two unit-share rows, whose
    # n-share is exactly 1, at each m = 13..15, each searched at d = 3, 4 and n.
    rng = random.Random(26)
    for m in (13, 14, 15):
        n = 3 + m % 3
        small = Instance.from_rows([[rng.randint(1, 10) for _ in range(m)] for _ in range(2)])
        unit, _ = random_normalized_ordered(rng, 2, m, d=n)
        for inst in (small, unit):
            for agent in (0, 1):
                for d in sorted({3, 4, n}):
                    assert mms(inst, agent, d).value == dp_share(inst, agent, d), (inst.valuations[agent], d)


@pytest.mark.parametrize(
    "row, d, value, parts",
    [
        (
            ["7/2", "9/4", "5/3", "11/6", "13/9", "8/7", "6/5", "4/3", "10/9", "1/2"],
            3,
            Fraction(239, 45),
            [[0, 3], [1, 4, 5, 9], [2, 6, 7, 8]],
        ),
        (
            ["50/3", "41/7", "93/8", "22/9", "67/5", "16/3", "88/9", "35/4", "29/6", "71/2", "9/7"],
            4,
            Fraction(16717, 630),
            [[9], [0, 7, 10], [1, 3, 4, 8], [2, 5, 6]],
        ),
        (
            ["1/2", "1/3", "1/4", "1/5", "1/6", "1/7", "1/8", "1/9", "2/3", "3/4", "4/5", "5/6"],
            3,
            Fraction(1021, 630),
            [[10, 11], [0, 2, 6, 9], [1, 3, 4, 5, 7, 8]],
        ),
    ],
)
def test_rational_rows_keep_their_pinned_witness(row, d, value, parts):
    # The value and witness the Fraction-valued search returned. None of them
    # is the greedy seed, so each comes from the depth-first search itself.
    inst = Instance.from_rows([[Fraction(v) for v in row]])
    res = mms(inst, 0, d)
    assert res.value == value
    assert res.witness.parts == tuple(frozenset(p) for p in parts)


@pytest.mark.parametrize(
    "row, goods, d, value, parts",
    [
        (
            ["5/2", "23/8", "13/9", "10", "29/6", "4", "5/9", "7/5", "11/4", "5", "7/4", "18/7"],
            [0, 1, 3, 5, 7, 8, 9],
            3,
            Fraction(37, 4),
            [[3], [1, 7, 9], [0, 5, 8]],
        ),
        (
            ["19/3", "5/2", "21/5", "4/3", "3/4", "21/2", "2/3", "11/4", "3/7"],
            [0, 1, 2, 3, 4, 5, 6, 7],
            3,
            Fraction(109, 12),
            [[5], [0, 7], [1, 2, 3, 4, 6]],
        ),
    ],
)
def test_goods_subset_with_another_lcm_keeps_its_pinned_witness(row, goods, d, value, parts):
    # The search runs on the full row's integer form, whose LCM (a multiple of
    # 7 here) differs from the subset's. The witness is the one a search scaled
    # by the subset's own LCM returned, and not the greedy seed.
    inst = Instance.from_rows([row])
    res = mms(inst, 0, d, goods=goods)
    assert res.value == value == mms_naive(inst, 0, d, goods=goods).value
    assert res.witness.parts == tuple(frozenset(p) for p in parts)


def test_thousands_of_goods_end_in_a_result_or_a_budget_error():
    # The depth-first search is as deep as the row is long.
    rng = random.Random(17)
    inst = Instance.from_rows([[rng.randint(1, 10**6) for _ in range(3000)]])
    try:
        res = mms(inst, 0, 7, node_budget=10**5)
    except SearchBudgetExceeded as err:
        assert err.budget == 10**5
    else:
        _witness_is_valid(inst, 0, 7, range(3000), res)


def _int_or_ratio_row(rng, m):
    """Integers in [0, 60], or half the time "p/q" strings."""
    if rng.random() < 0.5:
        return [rng.randint(0, 60) for _ in range(m)]
    return [f"{rng.randint(0, 30)}/{rng.randint(1, 9)}" for _ in range(m)]


# The properties below need no reference, so they run past the naive
# enumerator's 12 goods.


def test_monotone_in_bundle_count():
    rng = random.Random(12)
    for _ in range(100):
        m = rng.randint(2, 20)
        inst = Instance.from_rows([_int_or_ratio_row(rng, m)])
        values = [mms(inst, 0, d).value for d in range(1, 6)]
        assert all(a >= b for a, b in zip(values, values[1:]))


def test_monotone_in_goods():
    rng = random.Random(13)
    for _ in range(100):
        m = rng.randint(2, 20)
        d = rng.randint(1, 5)
        inst = Instance.from_rows([_int_or_ratio_row(rng, m)])
        small = sorted(rng.sample(range(m), rng.randint(1, m)))
        assert mms(inst, 0, d, goods=small).value <= mms(inst, 0, d).value


def test_scale_covariance():
    # The witness's smallest part is worth exactly the value, and the value is
    # at most (total - top k goods) / (d - k) for each k < d: the d - k parts
    # without the top k goods share what those goods leave.
    rng = random.Random(14)
    for _ in range(100):
        m = rng.randint(2, 20)
        d = rng.randint(1, 5)
        inst = Instance.from_rows([_int_or_ratio_row(rng, m)])
        c = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        scaled = Instance.from_rows([[c * v for v in inst.valuations[0]]])
        base = mms(inst, 0, d)
        res = mms(scaled, 0, d)
        assert res.value == c * base.value
        assert res.witness == base.witness
        _witness_is_valid(scaled, 0, d, range(m), res)
        top = sorted(inst.valuations[0], reverse=True)
        assert all(base.value <= (sum(top) - sum(top[:k])) / (d - k) for k in range(d))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    row=st.one_of(
        st.lists(st.integers(0, 60), min_size=13, max_size=20),
        st.lists(st.builds("{}/{}".format, st.integers(0, 30), st.integers(1, 9)), min_size=13, max_size=20),
    ),
    d=st.integers(2, 5),
    data=st.data(),
)
def test_permuting_the_goods_keeps_the_value(row, d, data):
    permuted = data.draw(st.permutations(row))
    assert mms(Instance.from_rows([permuted]), 0, d).value == mms(Instance.from_rows([row]), 0, d).value


def test_determinism():
    rng = random.Random(15)
    inst = random_instance(rng, 1, 9)
    first = mms(inst, 0, 3)
    second = mms(inst, 0, 3)
    assert first.value == second.value
    assert first.witness.parts == second.witness.parts


def test_mms_all_matches_mms_and_searches_each_distinct_row_once(monkeypatch):
    rng = random.Random(17)
    real_mms = oracle.mms
    searched = []

    def recorder(inst, agent, d, goods=None, node_budget=None):
        searched.append(inst.scaled[agent])
        return real_mms(inst, agent, d, goods=goods, node_budget=node_budget)

    for _ in range(40):
        n, m, d = rng.randint(1, 6), rng.randint(1, 9), rng.randint(1, 4)
        distinct = [[rng.randint(0, 6) for _ in range(m)] for _ in range(rng.randint(1, n))]
        # Duplicates, some of them spelled as other literals of the same values.
        rows = [list(rng.choice(distinct)) for _ in range(n)]
        rows[-1] = [f"{2 * v}/2" for v in rows[-1]]
        inst = Instance.from_rows(rows, num_goods=m)
        expected = [real_mms(inst, i, d) for i in range(n)]
        searched.clear()
        monkeypatch.setattr(oracle, "mms", recorder)
        results = mms_all(inst, d)
        monkeypatch.setattr(oracle, "mms", real_mms)
        assert [(r.value, r.witness) for r in results] == [(e.value, e.witness) for e in expected]
        assert sorted(searched) == sorted(set(inst.scaled))


def test_mms_all_checks_d_even_without_agents():
    empty = Instance.from_rows([], num_goods=3)
    assert mms_all(empty, 1) == ()
    for d in (0, -3, MAX_PARTS + 1):
        with pytest.raises(InputError, match="d must be"):
            mms_all(empty, d)


def test_no_search_result_outlives_its_call():
    # Each row is two copies of one half, so at d = 2 the greedy seed splits
    # it evenly and every search ends at its seed: the test stays fast.
    rng = random.Random(19)
    halves = [[rng.randint(1000, 10**6) for _ in range(100)] for _ in range(200)]
    inst = Instance.from_rows([half + half for half in halves])
    inst.scaled  # build the value kernel before measuring
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(inst.num_agents):
            assert mms(inst, i, 2).value == sum(halves[i])
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 256 * 1024


def test_zero_valuation_agent_gets_all_empty_but_one_witness():
    inst = Instance.from_rows([[0, 0, 0]])
    res = mms(inst, 0, 2)
    assert res.value == 0
    assert res.witness.ground_set == frozenset({0, 1, 2})
