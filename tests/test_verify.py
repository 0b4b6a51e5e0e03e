"""Checkers: share reports, transcript structure, threshold equivalence."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mmskit import (
    Allocation,
    InputError,
    Instance,
    Partition,
    PriorityRanking,
    TruthfulResponder,
    check_1_out_of_d,
    check_t_mms,
    check_transcript,
    check_unit_share_structure,
    equivalence_expand,
    mms,
    oracle,
    priority_thresholds,
    run_rbf_truthful,
    verify,
)
from mmskit.rbf import ReductionEvent, Transcript
from mmskit.verify import UNORDERED, check_targets, check_witness, unit_share_violations

from _instances import random_instance, random_normalized_ordered


# ---------------------------------------------------------------------------
# Share reports


def test_more_bundles_than_goods_passes_trivially():
    inst = random_instance(random.Random(0), 2, 3)
    empty = Allocation((frozenset(), frozenset()), unallocated=frozenset(range(3)))
    report = check_1_out_of_d(inst, empty, 5)
    assert all(c.ok for c in report)
    assert all(c.target == 0 for c in report)


def test_share_report_flags_short_agents():
    inst = Instance.from_rows([[1, 1], [1, 1]])
    lopsided = Allocation((frozenset({0, 1}), frozenset()))
    report = check_1_out_of_d(inst, lopsided, 2)
    assert not all(c.ok for c in report)
    assert [c.ok for c in report] == [True, False]


def test_t_mms_report_matches_predicate():
    rng = random.Random(1)
    for _ in range(10):
        n, m = 3, 7
        inst, _ = random_normalized_ordered(rng, n, m)
        thresholds = priority_thresholds(n)
        ranking = PriorityRanking.rotation(n, rng.randrange(n))
        alloc = run_rbf_truthful(inst, thresholds, ranking).allocation
        report = check_t_mms(inst, alloc, ranking, thresholds)
        targets = [thresholds.taus[ranking.rank_of[i]] * mms(inst, i, n).value for i in range(n)]
        assert report == check_targets(inst, alloc, targets)
        assert all(c.ok for c in report)


def test_t_mms_rejects_mismatched_lists_before_the_oracle(monkeypatch):
    inst = Instance.from_rows([[1, 1], [1, 1]])
    alloc = Allocation((frozenset({0}), frozenset({1})))
    ranking, thresholds = PriorityRanking.identity(2), priority_thresholds(2)

    def no_oracle(*args, **kwargs):
        raise AssertionError("the oracle was called")

    monkeypatch.setattr(oracle, "mms_all", no_oracle)
    one_bundle = Allocation((frozenset({0, 1}),))
    with pytest.raises(InputError, match="^allocation has 1 bundles, instance 2 agents$"):
        check_t_mms(inst, one_bundle, ranking, thresholds)
    with pytest.raises(InputError, match="^expected 2 thresholds, got 3$"):
        check_t_mms(inst, alloc, ranking, priority_thresholds(3))
    with pytest.raises(InputError, match="^ranking covers 3 agents, expected 2$"):
        check_t_mms(inst, alloc, PriorityRanking.identity(3), thresholds)
    # Both checks test every good of the allocation against the instance first.
    bad_bundle = Allocation((frozenset({0, 9}), frozenset({1})))
    bad_unallocated = Allocation((frozenset({0}), frozenset({1})), frozenset({9}))
    for bad in (bad_bundle, bad_unallocated):
        with pytest.raises(InputError, match="^good must be <= 1, got 9$"):
            check_t_mms(inst, bad, ranking, thresholds)
        with pytest.raises(InputError, match="^good must be <= 1, got 9$"):
            check_1_out_of_d(inst, bad, 2)
    with pytest.raises(InputError, match="^allocation has 1 bundles, instance 2 agents$"):
        check_1_out_of_d(inst, one_bundle, 2)


_ONE_EACH = Allocation(({0}, {1}))


@pytest.mark.parametrize(
    "alloc, targets, expected",
    [
        (_ONE_EACH, [1, "1"], [(1, True), (1, True)]),
        (_ONE_EACH, [0, "3/2"], [(0, True), (Fraction(3, 2), False)]),
        (_ONE_EACH, (Fraction(1, 2), 2), [(Fraction(1, 2), True), (2, False)]),
        (Allocation(((), {0, 1})), [0, 2], [(0, True), (2, True)]),
        (Allocation(((), {0})), [0, "1/1"], [(0, True), (1, True)]),
        (Allocation(({0}, ()), {1}), [1, "1/3"], [(1, True), (Fraction(1, 3), False)]),
        (_ONE_EACH, [1], "^instance has 2 agents, 1 targets$"),
        (_ONE_EACH, [1, 1, 1], "^instance has 2 agents, 3 targets$"),
        (_ONE_EACH, [1.0, 1], r"^not a rational: 1\.0 \(floats are not accepted\)$"),
        (_ONE_EACH, [1, 0.5], r"^not a rational: 0\.5 \(floats are not accepted\)$"),
        (Allocation(({0, 9}, {1})), [1, 1], "^good must be <= 1, got 9$"),
        (Allocation(({0}, {1}), {9}), [1.0], "^good must be <= 1, got 9$"),
        (Allocation(({0, 1},)), [1], "^allocation has 1 bundles, instance 2 agents$"),
    ],
)
def test_check_targets_checks_its_input_then_compares_exactly(monkeypatch, alloc, targets, expected):
    # The allocation first, then one rational target per agent; the oracle is
    # never called, and each set of goods is checked once.
    inst = Instance.from_rows([[1, 1], [1, 1]])

    def no_oracle(*args, **kwargs):
        raise AssertionError("the oracle was called")

    monkeypatch.setattr(oracle, "mms", no_oracle)
    monkeypatch.setattr(oracle, "mms_all", no_oracle)
    checked = []
    check_goods = Instance.check_goods

    def counted(self, goods):
        checked.append(goods)
        return check_goods(self, goods)

    monkeypatch.setattr(Instance, "check_goods", counted)
    if isinstance(expected, str):
        with pytest.raises(InputError, match=expected):
            check_targets(inst, alloc, targets)
        return
    report = check_targets(inst, alloc, targets)
    assert [(c.target, c.ok) for c in report] == expected
    assert all(type(c.target) is Fraction for c in report)
    assert checked == [*alloc.bundles, alloc.unallocated]


# ---------------------------------------------------------------------------
# Transcript structure


def _transcript_with_types(types, n=8, m=30):
    goods = iter(range(m))
    events = []
    agents_left, goods_left = n, m
    sizes = {1: 1, 2: 2, 3: 3, 4: 2}
    for t in types:
        bundle = frozenset(next(goods) for _ in range(sizes[t]))
        events.append(ReductionEvent(t, bundle, n - agents_left, agents_left, goods_left))
        agents_left -= 1
        goods_left -= sizes[t]
    return Transcript(
        num_agents=n,
        num_goods=m,
        reductions=tuple(events),
        bag_events=(),
        initial_bags=(),
    )


def test_empty_transcript_passes():
    tr = _transcript_with_types([])
    assert check_transcript(tr) == ()


def test_valid_reduction_sequence_passes_regex():
    tr = _transcript_with_types([1, 2, 2, 4, 3, 2, 4])
    report = check_transcript(tr)
    assert not any("does not match" in v for v in report)


def test_type_1_after_type_4_is_flagged():
    tr = _transcript_with_types([4, 1])
    report = check_transcript(tr)
    assert any("does not match" in v for v in report)


def test_goods_shortfall_is_flagged():
    tr = _transcript_with_types([2], n=8, m=9)
    report = check_transcript(tr)
    assert any("only" in v or "phase 2" in v for v in report)


@pytest.mark.parametrize(
    "types, n, m, violations",
    [
        (
            [2, 3, 4, 3],
            8,
            30,
            (
                "type-2 reduction 0 took goods [0, 1] ranked at or above the surviving cutoff 13",
                "type-3 reduction 1 took goods [2, 3, 4] ranked at or above the surviving cutoff 17",
                "type-3 reduction 3 took goods [7, 8, 9] ranked at or above the surviving cutoff 17",
            ),
        ),
        (
            [3],
            2,
            5,
            ("type-3 reduction 0 took goods [0, 1, 2] ranked at or above the surviving cutoff 4",),
        ),
        (
            # One agent and the goods 5 and 6 reach phase 2: both cutoffs exist.
            [3, 2],
            3,
            7,
            (
                "type-3 reduction 0 took goods [0, 1, 2] ranked at or above the surviving cutoff 6",
                "type-2 reduction 1 took goods [3, 4] ranked at or above the surviving cutoff 5",
            ),
        ),
        (
            # Too few surviving goods for a type-3 cutoff: only type 2 is checked.
            [2, 3],
            3,
            6,
            (
                "phase 2 started with 1 goods for 1 agents",
                "type-2 reduction 0 took goods [0, 1] ranked at or above the surviving cutoff 5",
            ),
        ),
    ],
)
def test_reductions_above_the_surviving_cutoff_are_flagged(types, n, m, violations):
    assert check_transcript(_transcript_with_types(types, n, m)) == violations


def test_truthful_runs_always_pass():
    rng = random.Random(2)
    for _ in range(40):
        n = rng.randint(1, 6)
        m = rng.randint(max(n, 2), 11)
        inst, _ = random_normalized_ordered(rng, n, m)
        tr = run_rbf_truthful(inst, priority_thresholds(n)).transcript
        assert check_transcript(tr) == ()


# ---------------------------------------------------------------------------
# Threshold equivalence expansion


def test_expand_identity_when_d_equals_n():
    inst = random_instance(random.Random(3), 2, 4)
    expanded, thresholds = equivalence_expand(inst, 2)
    assert expanded.num_agents == 2
    assert thresholds.taus == (Fraction(1), Fraction(1))


def test_expand_adds_zero_agents_and_split_thresholds():
    inst = random_instance(random.Random(4), 2, 4)
    expanded, thresholds = equivalence_expand(inst, 3)
    assert expanded.num_agents == 3
    assert expanded.valuations[2] == (Fraction(0),) * 4
    assert thresholds.taus == (Fraction(1), Fraction(1), Fraction(0))


def test_expand_bidirectional_equivalence():
    rng = random.Random(5)
    for _ in range(30):
        n, d, m = 2, 3, rng.randint(3, 5)
        inst = random_instance(rng, n, m, max_value=6)
        expanded, thresholds = equivalence_expand(inst, d)
        ranking = PriorityRanking.identity(d)
        goods = list(range(m))
        rng.shuffle(goods)
        cuts = sorted(rng.randint(0, m) for _ in range(d - 1))
        bundles = []
        last = 0
        for cut in cuts + [m]:
            bundles.append(frozenset(goods[last:cut]))
            last = cut
        alloc_d = Allocation(tuple(bundles))
        restricted = Allocation(
            tuple(bundles[:n]),
            unallocated=frozenset(g for b in bundles[n:] for g in b),
        )
        lhs = all(c.ok for c in check_t_mms(expanded, alloc_d, ranking, thresholds))
        rhs = all(c.ok for c in check_1_out_of_d(inst, restricted, d))
        assert lhs == rhs


# ---------------------------------------------------------------------------
# Unit-share witnesses


def test_witness_check_reports_coverage_and_part_values():
    inst = Instance.from_rows([[Fraction(1, 2)] * 4])
    assert check_witness(inst, 0, Partition(({0, 1}, {2, 3}))) == ()
    assert check_witness(inst, 0, Partition(({0, 1}, {2}))) == (
        "witness does not cover exactly the 4 goods",
    )
    assert check_witness(inst, 0, Partition(({0, 1}, {2, 3, 4}))) == (
        "witness does not cover exactly the 4 goods",
    )
    assert check_witness(inst, 0, Partition(({0, 1, 2}, {3}))) == (
        "witness part worth 3/2 != 1",
        "witness part worth 1/2 != 1",
    )


def test_witness_check_checks_the_agent_once_and_sums_the_ints_itself():
    # The cover check proves every part's goods, so no part goes through
    # bundle_value, which verify does not import; the agent is checked before
    # the cover.
    assert not hasattr(verify, "bundle_value")
    inst = Instance.from_rows([["3/4", "1/4", "1/2", "1/2"]])
    assert check_witness(inst, 0, Partition(({0, 1}, {2, 3}))) == ()
    assert check_witness(inst, 0, Partition(({0, 2}, {1, 3}))) == (
        "witness part worth 5/4 != 1",
        "witness part worth 3/4 != 1",
    )
    with pytest.raises(InputError, match="^agent must be <= 0, got 1$"):
        check_witness(inst, 1, Partition(({0},)))


@pytest.mark.parametrize("d", [0, -1])
def test_unit_share_structure_rejects_d_below_one(d):
    inst = Instance.from_rows([[Fraction(1, 2)] * 4])
    with pytest.raises(InputError, match="d must be >= 1"):
        check_unit_share_structure(inst, d)


@pytest.mark.parametrize(
    "row, d, expected",
    [
        (["1/2", "1/2", "1/2", "1/4"], 2, ["agent 0 values all goods at 7/4, expected 2 for a 2-normalized instance"]),
        (["3/2", "1/4", "1/4", "0"], 2, ["agent 0 values good 0 at 3/2 > 1, above a unit share"]),
        # The middle pair is also the innermost tail and the innermost bag pair.
        # On an ordered row, good d worth more than 1/2 makes the middle pair
        # worth more than 1.
        (
            ["3/4", "3/4", "1/2", "0"],
            2,
            [
                "agent 0: middle pair worth 5/4 > 1",
                "agent 0: pairs 2..2 sum to 5/4 > 1",
                "agent 0, pair 2: bottom worth 1/2 > 1/3 despite pair value 5/4 > 1",
            ],
        ),
        (
            ["3/5", "3/5", "3/5", "1/5"],
            2,
            [
                "agent 0: middle pair worth 6/5 > 1",
                "agent 0: good at position 2 worth 3/5 > 1/2",
                "agent 0: pairs 2..2 sum to 6/5 > 1",
                "agent 0, pair 2: bottom worth 3/5 > 1/3 despite pair value 6/5 > 1",
                "agent 0, pair 2: top worth 3/5 <= 2/3 despite pair value 6/5 > 1",
            ],
        ),
        (
            ["3/5", "3/5", "1/2", "1/2", "1/2", "3/10"],
            3,
            [
                "agent 0: pairs 2..3 sum to 21/10 > 2",
                "agent 0, pair 2: bottom worth 1/2 > 1/3 despite pair value 11/10 > 1",
                "agent 0, pair 2: top worth 3/5 <= 2/3 despite pair value 11/10 > 1",
            ],
        ),
        # Bag pairs at d = n = 1, the unit-share violations first.
        (
            ["1", "1/2"],
            1,
            [
                "agent 0 values all goods at 3/2, expected 1 for a 1-normalized instance",
                "agent 0: middle pair worth 3/2 > 1",
                "agent 0: pairs 1..1 sum to 3/2 > 1",
                "agent 0, pair 1: bottom worth 1/2 > 1/3 despite pair value 3/2 > 1",
            ],
        ),
        (
            ["3/5", "3/5"],
            1,
            [
                "agent 0 values all goods at 6/5, expected 1 for a 1-normalized instance",
                "agent 0: middle pair worth 6/5 > 1",
                "agent 0: good at position 1 worth 3/5 > 1/2",
                "agent 0: pairs 1..1 sum to 6/5 > 1",
                "agent 0, pair 1: bottom worth 3/5 > 1/3 despite pair value 6/5 > 1",
                "agent 0, pair 1: top worth 3/5 <= 2/3 despite pair value 6/5 > 1",
            ],
        ),
        # Bag pairs at d = 2 for one agent: every other fact holds, and no
        # 2-part partition is worth 1 per part.
        (
            ["4/5", "2/5", "2/5", "2/5"],
            2,
            ["agent 0, pair 1: bottom worth 2/5 > 1/3 despite pair value 6/5 > 1"],
        ),
    ],
    ids=[
        "total", "top-good", "middle-pair", "good-d", "pair-tail", "bag-pair-bottom", "bag-pair-top",
        "bag-pair-d-not-n",
    ],
)
def test_unit_share_structure_reports_each_violation(row, d, expected):
    inst = Instance.from_rows([row])
    assert check_unit_share_structure(inst, d) == tuple(expected)


def _structure_facts_over_fractions(inst, d):
    """The lemma facts of check_unit_share_structure, stated over the
    Fractions of the valuations view: the reference for its int comparisons."""
    violations = []
    for i, row in enumerate(inst.valuations):
        middle = row[d - 1] + row[d]
        if middle > 1:
            violations.append(f"agent {i}: middle pair worth {middle} > 1")
        if row[d] > Fraction(1, 2):
            violations.append(f"agent {i}: good at position {d} worth {row[d]} > 1/2")
        tail = Fraction(0)
        for k in range(d, 0, -1):
            top, bottom = row[k - 1], row[2 * d - k]
            pair = top + bottom
            tail += pair
            if tail > d - k + 1:
                violations.append(f"agent {i}: pairs {k}..{d} sum to {tail} > {d - k + 1}")
            if pair > 1 and bottom > Fraction(1, 3):
                violations.append(f"agent {i}, pair {k}: bottom worth {bottom} > 1/3 despite pair value {pair} > 1")
            if pair > 1 and top <= Fraction(2, 3):
                violations.append(f"agent {i}, pair {k}: top worth {top} <= 2/3 despite pair value {pair} > 1")
    return violations


# Values at and beside every bound the facts compare against.
_STRUCTURE_VALUES = st.one_of(
    st.sampled_from(["0", "1/6", "1/4", "1/3", "2/5", "1/2", "3/5", "2/3", "3/4", "1", "7/6"]),
    st.fractions(0, 2, max_denominator=30).map(str),
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_structure_facts_on_the_ints_match_the_fractions(data):
    d = data.draw(st.integers(1, 4), label="d")
    m = data.draw(st.integers(2 * d, 2 * d + 2), label="m")
    n = data.draw(st.integers(1, 3), label="n")
    rows = [
        sorted(data.draw(st.lists(_STRUCTURE_VALUES, min_size=m, max_size=m)), key=Fraction, reverse=True)
        for _ in range(n)
    ]
    inst = Instance.from_rows(rows)
    expected = unit_share_violations(inst, d) + tuple(_structure_facts_over_fractions(inst, d))
    assert check_unit_share_structure(inst, d) == expected


def test_structure_checks_report_an_unordered_instance_as_such():
    # A valid unit-share witness, but position 1 outranks position 0: read as
    # ranks, the row would show a middle pair and a pair tail worth 3/2.
    inst = Instance.from_rows([["1/2", "1", "1/2", "0"]])
    witness = Partition((frozenset({0, 2, 3}), frozenset({1})))
    assert check_witness(inst, 0, witness) == ()
    assert UNORDERED == "instance is not ordered (some agent's values increase)"
    assert check_unit_share_structure(inst, 2) == (UNORDERED,)
    assert unit_share_violations(inst, 2) == (UNORDERED,)


# ---------------------------------------------------------------------------
# The ordered unit-share input of both allocators

_HALVES = ["1/2"] * 4


def _first_violation(inst, d):
    """The message an allocator raises on this input at d, or None."""
    violations = unit_share_violations(inst, d)
    return violations[0] if violations else None


# (rows, TruthfulResponder's message, the message at d = 2). None is no violation.
_BAD_UNIT_SHARE_INPUTS = {
    "unordered": ([_HALVES, [0, 1, 0, 1]], UNORDERED, UNORDERED),
    "total": (
        [_HALVES, ["1/4"] * 4],
        "agent 1 values all goods at 1, expected 2 for a 2-normalized instance",
        "agent 1 values all goods at 1, expected 2 for a 2-normalized instance",
    ),
    "total-at-d-2": (
        [["1/2", "1/2", "1/2", "1/4"]],
        "agent 0 values all goods at 7/4, expected 1 for a 1-normalized instance",
        "agent 0 values all goods at 7/4, expected 2 for a 2-normalized instance",
    ),
    "good-over-1": (
        [_HALVES, ["3/2", "1/4", "1/4", "0"]],
        "agent 1 values good 0 at 3/2 > 1, above a unit share",
        "agent 1 values good 0 at 3/2 > 1, above a unit share",
    ),
    "no-goods": (
        [[], []],
        "agent 0 values all goods at 0, expected 2 for a 2-normalized instance",
        "agent 0 values all goods at 0, expected 2 for a 2-normalized instance",
    ),
    "unit-shares": ([_HALVES, _HALVES], None, None),
}


@pytest.mark.parametrize(
    "rows, responder_message, message_at_2",
    _BAD_UNIT_SHARE_INPUTS.values(),
    ids=_BAD_UNIT_SHARE_INPUTS.keys(),
)
def test_both_allocators_raise_the_first_unit_share_violation(rows, responder_message, message_at_2):
    inst = Instance.from_rows(rows)
    n = inst.num_agents
    assert _first_violation(inst, n) == responder_message
    if responder_message is None:
        TruthfulResponder(inst)
    else:
        with pytest.raises(InputError) as info:
            TruthfulResponder(inst)
        assert str(info.value) == responder_message
    assert _first_violation(inst, 2) == message_at_2


def test_unit_share_violations_show_a_d_past_the_digit_limit_by_its_size():
    # str refuses an int of more than 4300 digits; the message was a raw ValueError.
    huge = "<int of 16610 bits>"
    assert unit_share_violations(Instance.from_rows([_HALVES]), 10**5000) == (
        f"agent 0 values all goods at 2, expected {huge} for a {huge}-normalized instance",
    )


def test_unit_share_violations_come_totals_first_then_top_goods():
    inst = Instance.from_rows([["3/2", "1/4", "1/4", "0"], ["1/2", "1/2", "1/2", "1/4"]])
    assert unit_share_violations(inst, 2) == (
        "agent 1 values all goods at 7/4, expected 2 for a 2-normalized instance",
        "agent 0 values good 0 at 3/2 > 1, above a unit share",
    )
