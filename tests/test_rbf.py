"""Threshold allocator: order statistics, reductions, bag filling, transcripts."""

import random
from fractions import Fraction

import pytest

from mmskit import (
    Instance,
    InputError,
    PriorityRanking,
    ThresholdList,
    bundle_value,
    check_transcript,
    ord_st,
    priority_thresholds,
    run_rbf,
    run_rbf_truthful,
)
from mmskit.verify import check_bag_pair_bounds

from _instances import random_normalized_ordered


# ---------------------------------------------------------------------------
# Order statistics


def test_ord_st_minimum():
    assert ord_st({5, 9, 2}, {1}) == frozenset({2})


def test_ord_st_pair():
    assert ord_st({5, 9, 2}, {2, 3}) == frozenset({5, 9})


def test_ord_st_out_of_range_positions_skipped():
    assert ord_st({5, 9, 2}, {4}) == frozenset()
    assert ord_st({5, 9, 2}, {1, 4}) == frozenset({2})


def test_ord_st_empty_set():
    assert ord_st(set(), {1, 2}) == frozenset()


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
    alloc, tr = run_rbf_truthful(inst, priority_thresholds(2))
    assert tr.reductions[0].type == 1
    assert tr.reductions[0].agent == 0
    assert alloc.bundles[0] == frozenset({0})


def test_reduction_goes_to_smallest_rank():
    inst = _unit_instance_with_big_good()
    ranking = PriorityRanking((1, 0))  # agent 1 is most important
    alloc, tr = run_rbf_truthful(inst, priority_thresholds(2), ranking)
    assert tr.reductions[0].agent == 1


def test_threshold_validation():
    inst, _ = random_normalized_ordered(random.Random(0), 2, 5)
    with pytest.raises(InputError):
        run_rbf_truthful(inst, ThresholdList((Fraction(1), Fraction(0))))
    with pytest.raises(InputError):
        run_rbf_truthful(inst, ThresholdList((Fraction(1),)))


def test_truthful_input_validation():
    unordered = Instance.from_rows([[1, 2], [2, 1]])
    with pytest.raises(InputError):
        run_rbf_truthful(unordered, ThresholdList.constant(2, Fraction(1, 2)))
    not_unit = Instance.from_rows([[2, 1], [2, 1]])
    with pytest.raises(InputError):
        run_rbf_truthful(not_unit, ThresholdList.constant(2, Fraction(1, 2)))


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
            alloc, tr = run_rbf_truthful(inst, thresholds, ranking)
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
        _, tr = run_rbf_truthful(inst, priority_thresholds(n))
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
        alloc, tr = run_rbf_truthful(inst, tau)
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
        alloc, tr = run_rbf_truthful(inst, thresholds)
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
        alloc, _ = run_rbf_truthful(inst, ThresholdList.constant(n, tau))
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
        alloc, _ = run_rbf_truthful(inst, taus)
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
# Custom responders


class _FlatResponder:
    """Likes nothing: forces pure bag filling into the leftover path."""

    def value(self, agent, goods):
        return Fraction(0)


def test_scripted_runs_reach_the_leftover_path():
    n, m = 3, 8
    alloc, tr = run_rbf(
        _FlatResponder(), n, m, ThresholdList.constant(n, Fraction(1, 2))
    )
    assert tr.ran_out_of_goods
    assert not any(tr.satisfied)
    assert frozenset().union(*alloc.bundles, alloc.unallocated) == frozenset(range(m))


def test_fill_bag_chooser_override():
    n, m = 2, 8
    seen = []

    def chooser(open_bags):
        seen.append(tuple(open_bags))
        return open_bags[-1]

    run_rbf(
        _FlatResponder(), n, m, ThresholdList.constant(n, Fraction(1, 2)),
        fill_bag_chooser=chooser,
    )
    assert seen  # the override was consulted
