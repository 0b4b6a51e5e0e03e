"""Normalize / order / pad and the picking map back to original goods."""

import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from mmskit import Allocation, GuaranteeViolation, InputError, Instance, Partition, bundle_value, mms
from mmskit import ordinal
from mmskit.adversarial import gen_hard1, gen_hard2_responders, gen_ordinal_tight
from mmskit.transform import (
    normalize,
    order,
    pad_agents_to_multiple_of_3,
    pad_goods,
    reinstate,
    unpick,
)
from mmskit.ordinal import run_1_out_of_d
from mmskit.verify import check_1_out_of_d, check_unit_share_structure, check_witness, equivalence_expand

from _instances import random_instance, random_normalized_ordered


# ---------------------------------------------------------------------------
# Agent padding


def test_pad_agents_noop_on_multiple_of_3():
    inst = random_instance(random.Random(0), 3, 4)
    assert pad_agents_to_multiple_of_3(inst) is inst


@pytest.mark.parametrize("n,expected", [(1, 3), (2, 3), (4, 6), (5, 6), (7, 9)])
def test_pad_agents_clones_agent_zero(n, expected):
    inst = random_instance(random.Random(n), n, 5)
    padded = pad_agents_to_multiple_of_3(inst)
    assert padded.num_agents == expected
    assert padded.valuations[:n] == inst.valuations
    assert padded.valuations[n:] == (inst.valuations[0],) * (expected - n)


# ---------------------------------------------------------------------------
# Good padding


def test_pad_goods_identity_when_enough():
    inst = random_instance(random.Random(1), 2, 6)
    assert pad_goods(inst, 4) is inst


def test_pad_goods_appends_zeros():
    inst = Instance.from_rows([[1, 2, 3]])
    padded = pad_goods(inst, 8)
    assert padded.num_goods == 8
    assert padded.valuations[0][:3] == inst.valuations[0]
    assert padded.valuations[0][3:] == (0,) * 5


def test_pad_goods_preserves_normalized_structure():
    inst, witnesses = random_normalized_ordered(random.Random(2), 3, 7, d=3)
    padded = pad_goods(inst, 10)
    # Absorb the zero tail into any witness part: parts keep value 1.
    for i, w in enumerate(witnesses):
        grown = w.parts[0] | frozenset(range(7, 10))
        assert bundle_value(padded, i, grown) == 1


# ---------------------------------------------------------------------------
# Normalization


def test_normalize_unit_parts_and_totals():
    rng = random.Random(3)
    for _ in range(15):
        n, m, d = rng.randint(1, 3), rng.randint(4, 8), rng.randint(2, 4)
        inst = random_instance(rng, n, m, max_value=9)
        if any(sum(1 for v in row if v) < d for row in inst.valuations):  # a d-share of 0
            with pytest.raises(InputError, match="cannot be normalized"):
                normalize(inst, d)
            continue
        normalized, witnesses = normalize(inst, d)
        assert normalized.num_agents == n
        for row_idx in range(n):
            for part in witnesses[row_idx].witness.parts:
                assert bundle_value(normalized, row_idx, part) == 1
            assert normalized.totals[row_idx] == d


def test_normalize_divides_by_part_value_not_share():
    # One agent, goods {2, 2}, two bundles: each part is worth 2, so each
    # good becomes 1/2 * 2 / 2 ... i.e. exactly 1 after division.
    inst = Instance.from_rows([[2, 2]])
    normalized, witnesses = normalize(inst, 2)
    assert normalized.valuations[0] == (Fraction(1), Fraction(1))


def test_normalize_rejects_a_zero_share_agent():
    inst = Instance.from_rows([[1, 1], [0, 1]])
    with pytest.raises(InputError, match="^agent 1 has a 2-share of 0 and cannot be normalized$"):
        normalize(inst, 2)


def test_normalize_keeps_already_normalized_values():
    inst, _ = random_normalized_ordered(random.Random(4), 2, 6)
    normalized, _ = normalize(inst, 2)
    # Any unit-part witness divides by 1, so the rows survive unchanged.
    assert normalized.valuations == inst.valuations


# ---------------------------------------------------------------------------
# Ordering


def test_order_sorts_each_row():
    inst = Instance.from_rows([["1/3", 1, "1/2"]])
    ordered, perms = order(inst)
    assert ordered.valuations[0] == (Fraction(1), Fraction(1, 2), Fraction(1, 3))
    assert perms[0] == (1, 2, 0)


def test_order_identity_on_sorted_rows():
    inst = Instance.from_rows([[3, 2, 2, 1]])
    ordered, perms = order(inst)
    assert ordered.valuations == inst.valuations
    assert perms[0] == (0, 1, 2, 3)


def test_order_preserves_row_sums():
    rng = random.Random(5)
    inst = random_instance(rng, 4, 7)
    ordered, _ = order(inst)
    for i in range(4):
        assert ordered.totals[i] == inst.totals[i]


# ---------------------------------------------------------------------------
# Structural facts of ordered unit-share instances


def test_unit_share_structure_on_constructed_instances():
    rng = random.Random(6)
    for _ in range(25):
        n = rng.randint(1, 4)
        d = rng.randint(1, 6)
        m = rng.randint(2 * d, 2 * d + 4)
        inst, witnesses = random_normalized_ordered(rng, n, m, d=d)
        assert check_unit_share_structure(inst, d) == ()
        assert all(check_witness(inst, i, w) == () for i, w in enumerate(witnesses))


def test_unit_share_structure_after_real_normalization():
    # Same facts on instances produced by the oracle-backed pipeline rather
    # than by construction: normalize, order, pad to 2d, check.
    rng = random.Random(60)
    for _ in range(10):
        n, d = rng.randint(1, 3), rng.randint(2, 4)
        m = rng.randint(d, 8)
        raw = random_instance(rng, n, m, max_value=9)
        if any(sum(1 for v in row if v) < d for row in raw.valuations):  # a d-share of 0
            with pytest.raises(InputError, match="cannot be normalized"):
                normalize(raw, d)
            continue
        normalized, _ = normalize(raw, d)
        padded = pad_goods(normalized, 2 * d)
        ordered, perms = order(padded)
        assert check_unit_share_structure(ordered, d) == ()


# ---------------------------------------------------------------------------
# Picking and reinstatement


def test_pipeline_roundtrip_values_never_drop():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(2, 4)
        m = rng.randint(n + 2, 9)
        inst = random_instance(rng, n, m, max_value=8)
        result = run_1_out_of_d(inst)
        assert all(c.ok for c in result.report)
        assert result.report == check_1_out_of_d(inst, result.allocation, result.d)


def test_unpick_single_agent_keeps_everything():
    inst = Instance.from_rows([[5, 4, 4, 3]])
    result = run_1_out_of_d(inst)
    assert result.allocation.bundles[0] == frozenset(range(4))


def test_reinstate_drops_dummies_and_clone_bundles():
    rng = random.Random(8)
    inst = random_instance(rng, 4, 9, max_value=9)
    result = run_1_out_of_d(inst)
    if result.transcript is None:
        pytest.skip("degenerate draw: pipeline short-circuited")
    alloc = result.allocation
    assert alloc.num_agents == 4
    for bundle in alloc.bundles:
        assert all(g < inst.num_goods for g in bundle)


def test_reinstate_rejects_a_repeated_survivor():
    # Each member goes through check_int("survivor", ...); a repeat would hand
    # one agent two rows' bundles, the last silently replacing the first.
    inst = Instance.from_rows([[1, 2], [3, 4]])
    with pytest.raises(InputError, match=r"^survivors repeat an agent: \[1, 1\]$"):
        reinstate(Allocation(({0}, {1})), inst, [1, 1])
    assert reinstate(Allocation(({0}, {1})), inst, [1, 0]).bundles == (frozenset({1}), frozenset({0}))


def test_unpick_is_value_preserving_on_already_ordered_instances():
    # When the normalized instance is itself ordered, sorting changes nothing
    # and a full allocation picks back a same-value bundle for everyone.
    rng = random.Random(11)
    for _ in range(10):
        n = rng.randint(1, 3)
        m = rng.randint(max(n, 2), 8)
        inst, _ = random_normalized_ordered(rng, n, m)  # rows already sorted
        ordered, _ = order(inst)
        assert ordered.valuations == inst.valuations
        positions = list(range(m))
        rng.shuffle(positions)
        bundles = tuple(frozenset(positions[i::n]) for i in range(n))
        picked = unpick(Allocation(bundles), inst, ordered)
        for a in range(n):
            assert bundle_value(inst, a, picked.bundles[a]) == bundle_value(
                ordered, a, bundles[a]
            )


def test_unpick_beats_the_sorted_allocation_per_agent():
    rng = random.Random(9)
    for _ in range(15):
        n = rng.randint(2, 3)
        m = rng.randint(6, 9)
        inst, _ = random_normalized_ordered(rng, n, m)
        # Run the picking map over an already-normalized instance on a random
        # bundle arrangement of positions.
        ordered, _ = order(inst)
        positions = list(range(m))
        rng.shuffle(positions)
        bundles = tuple(frozenset(positions[i::n]) for i in range(n))
        picked = unpick(Allocation(bundles), inst, ordered)
        for a in range(n):
            assert bundle_value(inst, a, picked.bundles[a]) >= bundle_value(
                ordered, a, bundles[a]
            )


def test_unpick_checks_the_allocation_once_and_sums_the_ints_itself(monkeypatch):
    # ordered.check_allocation checks each bundle and the unallocated goods
    # once; the picking self-check sums each agent's ints, and shows Fractions
    # only in its message. Rows that picking cannot match raise it.
    checked = []
    check_goods = Instance.check_goods

    def counted(self, goods):
        checked.append(goods)
        return check_goods(self, goods)

    monkeypatch.setattr(Instance, "check_goods", counted)
    inst = Instance.from_rows([["1/2", "1/4", "1/2", "1/4"], ["1/4", "1/2", "1/4", "1/2"]])
    alloc = Allocation(({0, 3}, {1}), {2})
    assert unpick(alloc, inst, order(inst)[0]).bundles == (frozenset({0, 2}), frozenset({1}))
    assert checked == [*alloc.bundles, alloc.unallocated]
    lowered = r"^picking lowered agent 0's value from 3/2 to 1/2; this contradicts the picking argument$"
    with pytest.raises(GuaranteeViolation, match=lowered):
        unpick(Allocation(({0, 1},)), Instance.from_rows([["1/2", 0]]), Instance.from_rows([["1/2", 1]]))


def test_end_to_end_guarantee_against_oracle():
    rng = random.Random(10)
    for _ in range(10):
        n = rng.randint(2, 3)
        m = rng.randint(n, 8)
        inst = random_instance(rng, n, m)
        result = run_1_out_of_d(inst)
        d = result.d
        for i in range(n):
            assert bundle_value(inst, i, result.allocation.bundles[i]) >= mms(inst, i, d).value


# ---------------------------------------------------------------------------
# One canonical value kernel on every construction path


_positive = st.fractions(Fraction(1, 6), 3, max_denominator=6)


def _assert_canonical(inst: Instance) -> None:
    # mms_all's row deduplication and each responder's unit rely on equal rows
    # having equal (ints, L): L is the lcm of the row's reduced denominators.
    assert inst.scaled == Instance.from_rows(inst.valuations, inst.num_goods).scaled
    for (_, scale), row in zip(inst.scaled, inst.valuations):
        assert scale == lcm(*(v.denominator for v in row))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.integers(2, 3).flatmap(
        lambda n: st.integers(4, 8).flatmap(
            lambda m: st.lists(
                st.lists(
                    st.one_of(st.just(Fraction(0)), *[_positive] * 3),  # one value in four is 0
                    min_size=m,
                    max_size=m,
                ),
                min_size=n,
                max_size=n,
            )
        )
    ),
    st.integers(0, 3),
    st.data(),
)
def test_every_construction_path_builds_the_canonical_kernel(rows, extra, data):
    inst = Instance.from_rows(rows)
    n = data.draw(st.integers(3, 8), label="family n")
    i = data.draw(st.integers(3, n), label="rank i")
    k1 = data.draw(st.integers(1, n // 3), label="k1")
    built = [
        inst,
        pad_agents_to_multiple_of_3(inst),
        pad_goods(inst, inst.num_goods + extra),
        order(inst)[0],
        equivalence_expand(inst, inst.num_agents + extra)[0],
        gen_ordinal_tight(n).instance,
        gen_hard1(n, i, Fraction(1, 3 * n)).instance,
        gen_hard2_responders(n, n, k1, n // 3 - k1, 3).instance,
    ]
    if all(sum(1 for v in ints if v) >= 2 for ints, _ in inst.scaled):  # every 2-share positive
        built.append(normalize(inst, 2)[0])
    # run_1_out_of_d builds its survivors instance, then pads, normalizes and
    # orders it through ordinal's own names; record what each step gets and makes.
    names = ("pad_agents_to_multiple_of_3", "pad_goods", "normalize", "order")
    steps = {name: getattr(ordinal, name) for name in names}

    def recording(step):
        def run(*args, **kwargs):
            out = step(*args, **kwargs)
            built.extend((args[0], out[0] if isinstance(out, tuple) else out))
            return out

        return run

    try:
        for name, step in steps.items():
            setattr(ordinal, name, recording(step))
        ordinal.run_1_out_of_d(inst)
    finally:
        for name, step in steps.items():
            setattr(ordinal, name, step)
    for x in built:
        _assert_canonical(x)
