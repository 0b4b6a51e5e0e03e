"""Hard families: generated values, witnesses, and failure demonstrations."""

from fractions import Fraction

import pytest

from mmskit import (
    HardInstanceSpec,
    InputError,
    ThresholdList,
    bundle_value,
    demonstrate_failure,
    gen_hard1,
    gen_hard2_responders,
    gen_ordinal_tight,
    mms,
    priority_thresholds,
)
from mmskit import adversarial, oracle, verify
from mmskit.adversarial import FAMILY_MAX_VALUES, HARD1_MAX_GOODS

from _instances import fills


# ---------------------------------------------------------------------------
# ordinalTight generation


def test_tight_sizes_and_values_n5():
    fam = gen_ordinal_tight(5)
    assert fam.d == 6
    assert fam.instance.num_goods == 14
    u = fam.instance.valuations[0]
    assert u[0] == Fraction(3, 5)  # 2/3 - 1/15
    assert u[9] == u[10] == Fraction(1, 3)  # positions 2n and 2n+1


def test_tight_good_count_stays_below_3n():
    for n in range(2, 13):
        fam = gen_ordinal_tight(n)
        assert fam.instance.num_goods <= 3 * n - 1
        assert fam.instance.ordered


def test_tight_witness_certifies_unit_shares():
    for n in range(2, 10):
        fam = gen_ordinal_tight(n)
        for part in fam.witness.parts:
            assert bundle_value(fam.instance, 0, part) == 1
        assert fam.witness.ground_set == frozenset(range(fam.instance.num_goods))
        assert len(fam.witness.parts) == fam.d


def test_tight_share_is_one_by_oracle():
    for n in (2, 3, 4, 5):
        fam = gen_ordinal_tight(n)
        assert mms(fam.instance, 0, fam.d).value == 1


def test_tight_fill_profile_is_one_good_per_early_bag():
    from mmskit import run_ordinal

    for n in range(2, 11):
        fam = gen_ordinal_tight(n)
        m = fam.instance.num_goods
        _, tr = run_ordinal(fam.instance)
        fills_per_bag = {}
        for bag, _ in fills(tr):
            fills_per_bag[bag] = fills_per_bag.get(bag, 0) + 1
        assert fills_per_bag == {k: 1 for k in range(m - 2 * n)}


# ---------------------------------------------------------------------------
# hard1 generation


def test_hard1_alpha_value():
    fam = gen_hard1(5, 5, Fraction(1, 15))
    assert fam.alpha == Fraction(5, 6)  # 15/18


def test_hard1_witness_and_shapes():
    for n, i in [(3, 3), (5, 4), (6, 3), (7, 7)]:
        fam = gen_hard1(n, i, Fraction(1, 6 * n))
        inst = fam.instance
        assert inst.ordered
        for part in fam.witness.parts:
            assert bundle_value(inst, 0, part) == 1
        assert fam.witness.ground_set == frozenset(range(inst.num_goods))
        # Every reduction shape is capped by alpha for the rich agents.
        delta = Fraction(1, 3 * n + i - 2)
        assert bundle_value(inst, 0, {0, 2 * n}) == (3 * n - 1) * delta
        assert bundle_value(inst, 0, {n - 1, n}) == (3 * n - 1) * delta
        assert bundle_value(inst, 0, {2 * n - 2, 2 * n - 1, 2 * n}) == fam.alpha
        # Flat agents are unit-normalized as well.
        assert inst.totals[n - 1 if i < n else i - 1] == n
        for row in range(inst.num_agents):
            assert inst.totals[row] == n


def test_hard1_parameter_validation():
    with pytest.raises(InputError):
        gen_hard1(5, 2, Fraction(1, 30))
    with pytest.raises(InputError):
        gen_hard1(2, 3, Fraction(1, 30))
    with pytest.raises(InputError):
        gen_hard1(5, 4, Fraction(2, 3))  # not a unit fraction
    with pytest.raises(InputError, match="floats are not accepted"):
        gen_hard1(4, 3, 0.015625)  # 1/64 exactly, but a float


def test_hard1_good_count_is_capped_before_anything_is_built():
    # 4 * 10^9 goods: rejected from n and epsilon alone.
    with pytest.raises(InputError, match="epsilon too small"):
        gen_hard1(4, 3, Fraction(1, 10**9))
    with pytest.raises(InputError, match="epsilon too small"):
        gen_hard1(4, 3, Fraction(1, HARD1_MAX_GOODS // 4 + 1))


# ---------------------------------------------------------------------------
# hard2 generation


def test_hard2_alpha_epsilon_and_witness():
    fam = gen_hard2_responders(6, 4, 3, 0, 3)
    assert fam.alpha == Fraction(5, 6)
    assert fam.epsilon == Fraction(1, 54)
    parts = fam.witness.parts
    assert len(parts) == 6
    for part in parts:
        assert bundle_value(fam.instance, 0, part) == 1
    assert fam.witness.ground_set == frozenset(range(fam.instance.num_goods))


def test_hard2_with_complement_goods():
    # Odd n with k2 = 1 exercises the alpha-complement bundles.
    fam = gen_hard2_responders(7, 6, 3, 1, 3)
    assert fam.alpha == 1 - Fraction(3, 18)
    for part in fam.witness.parts:
        assert bundle_value(fam.instance, 0, part) == 1
    assert fam.instance.ordered


def test_hard2_alpha_sits_in_the_proof_window():
    for n in range(4, 9):
        for i in range(2, n + 1):
            for k1 in range(1, n // 2 + 1):
                for k2 in range(0, min(i - k1, n - 2 * k1 + 1)):
                    fam = gen_hard2_responders(n, i, k1, k2, 3)
                    assert Fraction(5, 6) <= fam.alpha < 1 - fam.epsilon


def test_hard2_parameter_validation():
    with pytest.raises(InputError):
        gen_hard2_responders(6, 4, 4, 0, 3)  # k1 + k2 >= i
    with pytest.raises(InputError):
        gen_hard2_responders(6, 4, 3, 1, 3)  # 2k1 + k2 > n
    with pytest.raises(InputError):
        gen_hard2_responders(6, 4, 3, 0, 2)  # t < 3


# ---------------------------------------------------------------------------
# Size cap of ordinalTight and hard2


def test_family_size_is_capped_before_anything_is_built(monkeypatch):
    def no_instance(*args, **kwargs):
        raise AssertionError("a family instance was built")

    monkeypatch.setattr(adversarial, "Instance", no_instance)
    # 3 * 10^6 values and 9 * 10^5 fillers, rejected from the parameters
    # alone. The sizes stay small enough that a broken cap fails fast.
    with pytest.raises(InputError, match="values"):
        gen_ordinal_tight(1000)
    with pytest.raises(InputError, match="values"):
        gen_hard2_responders(4, 2, 1, 0, 10**5)
    with pytest.raises(InputError, match="values"):
        demonstrate_failure(HardInstanceSpec("ordinalTight", 1000))


def test_family_cap_counts_the_values_a_family_holds():
    # n = 58 is the largest n admitted at t = 3; its built instances fit.
    tight = gen_ordinal_tight(58).instance
    hard2 = gen_hard2_responders(58, 2, 1, 0, 3).instance
    for inst in (tight, hard2):
        assert inst.num_agents * inst.num_goods <= FAMILY_MAX_VALUES
    with pytest.raises(InputError, match="values"):
        gen_ordinal_tight(59)
    with pytest.raises(InputError, match="values"):
        gen_hard2_responders(59, 2, 1, 0, 3)


# ---------------------------------------------------------------------------
# Failure demonstrations


def test_ordinal_tight_failure_reports_short_bag():
    report = demonstrate_failure(HardInstanceSpec("ordinalTight", 5))
    assert report.shortfalls[0].value == Fraction(14, 15)
    assert report.transcript.ran_out_of_goods


def test_ordinal_tight_demos_log_leftover_bags_for_the_unserved_agents():
    for n in range(2, 13):
        tr = demonstrate_failure(HardInstanceSpec("ordinalTight", n)).transcript
        assert tr.ran_out_of_goods and tr.reductions == ()
        assert verify.check_transcript(tr) == ()
        leftover = [e.agent for e in tr.bag_events if e.kind == "leftover"]
        assert leftover and sorted(leftover) == [i for i in range(n) if not tr.satisfied[i]]


def test_ordinal_tight_all_short_bags_equal_formula():
    for n in (2, 4, 7, 10):
        report = demonstrate_failure(HardInstanceSpec("ordinalTight", n))
        assert any(c.value == 1 - Fraction(1, 3 * n) for c in report.shortfalls)


def test_hard1_failure_no_reductions_and_short_agent():
    for n, i in [(4, 3), (6, 4), (5, 5)]:
        spec = HardInstanceSpec("hard1", n, i=i)
        report = demonstrate_failure(spec)
        assert len(report.transcript.reductions) == 0
        witness = report.shortfalls[0]
        assert witness.agent < i  # 0-indexed member of the rich block
        assert witness.value < witness.target and not witness.ok


def test_hard1_rejects_threshold_at_or_below_cap():
    alpha = Fraction(3 * 6, 3 * 6 + 4 - 2)
    T = ThresholdList((Fraction(1),) * 3 + (alpha,) * 3)
    with pytest.raises(InputError):
        demonstrate_failure(HardInstanceSpec("hard1", 6, i=4), T)


@pytest.fixture
def no_oracle(monkeypatch):
    """Any call of oracle.mms or oracle.mms_all fails the test."""

    def refuse(*args, **kwargs):
        raise AssertionError("a demo called the share oracle")

    monkeypatch.setattr(oracle, "mms", refuse)
    monkeypatch.setattr(oracle, "mms_all", refuse)


def test_hard1_demos_never_reach_the_oracle(no_oracle):
    # A truthful run asks the oracle for shares only after it raises
    # GuaranteeViolation; on hard1 no first-round shape is liked, so the
    # run ends phase 1 with no reduction and cannot raise.
    for n in range(3, 15):
        for i in range(3, n + 1):
            # The default list, and one whose ranks after i ask for only 1/50:
            # its epsilon is then 1/151, so the flat agents own 151n goods.
            alpha = Fraction(3 * n, 3 * n + i - 2)
            low = ThresholdList((Fraction(1),) * (i - 1) + (alpha + Fraction(1, 1000),) + (Fraction(1, 50),) * (n - i))
            for T in (None, low):
                report = demonstrate_failure(HardInstanceSpec("hard1", n, i=i), T)
                assert len(report.transcript.reductions) == 0 and report.shortfalls


def test_ordinal_tight_demos_never_reach_the_oracle(no_oracle):
    # The witness gen_ordinal_tight checked proves every d-share is 1.
    for n in range(2, 13):
        report = demonstrate_failure(HardInstanceSpec("ordinalTight", n))
        assert report.shortfalls and all(c.target == 1 for c in report.shortfalls)


def test_hard2_demos_never_reach_the_oracle(no_oracle):
    # Only the target agent is judged: her own value against the family's cap.
    for n in range(4, 9):
        for i in range(2, n + 1):
            for k1 in range(1, n // 2 + 1):
                for k2 in range(0, min(i - k1, n - 2 * k1 + 1)):
                    report = demonstrate_failure(HardInstanceSpec("hard2", n, i=i, k1=k1, k2=k2, t=3))
                    assert [c.agent for c in report.shortfalls] == [i - 1]


def test_built_in_thresholds_sit_below_the_hard1_cap():
    # So the built-in-threshold rule of run_rbf_truthful never applies to a
    # hard1 demo: its rank-i threshold must exceed the cap.
    for n in range(3, 120):
        taus = priority_thresholds(n).taus
        assert all(taus[i - 1] < Fraction(3 * n, 3 * n + i - 2) for i in range(3, n + 1))
    for n, i in [(3, 3), (6, 4), (9, 9)]:
        cap = Fraction(3 * n, 3 * n + i - 2)
        with pytest.raises(InputError, match=f"^rank {i} threshold must exceed the family cap {cap}, got "):
            demonstrate_failure(HardInstanceSpec("hard1", n, i=i), priority_thresholds(n))


def test_a_hard1_demo_is_one_checked_truthful_run(monkeypatch):
    calls = {"run": 0, "structure": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(adversarial, "run_rbf_truthful", counted("run", adversarial.run_rbf_truthful))
    monkeypatch.setattr(verify, "check_transcript", counted("structure", verify.check_transcript))
    report = demonstrate_failure(HardInstanceSpec("hard1", 6, i=4))
    assert calls == {"run": 1, "structure": 1}
    assert [c.agent for c in report.shortfalls] == [3]


def test_ordinal_tight_takes_no_thresholds():
    # Its targets are full shares; a given list must not be ignored.
    with pytest.raises(InputError, match="no thresholds"):
        demonstrate_failure(HardInstanceSpec("ordinalTight", 4), ThresholdList.constant(4, 1))


@pytest.mark.parametrize(
    "family, n, fields, unread",
    [
        ("ordinalTight", 3, {"i": 9, "k1": 5}, "i"),
        ("ordinalTight", 3, {"k2": 0}, "k2"),
        ("ordinalTight", 3, {"t": 3}, "t"),
        ("hard1", 4, {"i": 3, "k1": 7, "k2": 2}, "k1"),
        ("hard1", 4, {"i": 3, "k2": 0}, "k2"),
        ("hard1", 4, {"i": 3, "t": 5}, "t"),
    ],
    ids=["ordinalTight-i", "ordinalTight-k2", "ordinalTight-t", "hard1-k1", "hard1-k2", "hard1-t"],
)
def test_a_spec_rejects_what_its_family_never_reads(family, n, fields, unread):
    # Worded as the CLI's unread-flag error; both specs used to build and run a demo.
    with pytest.raises(InputError) as info:
        demonstrate_failure(HardInstanceSpec(family, n, **fields))
    assert str(info.value) == f"{unread} is not read with {family}"


@pytest.mark.parametrize(
    "spec",
    [HardInstanceSpec("hard1", 6, i=4), HardInstanceSpec("hard2", 6, i=4, k1=3, k2=0, t=3)],
    ids=["hard1", "hard2"],
)
@pytest.mark.parametrize("length", [2, 7])
def test_demo_thresholds_need_one_per_agent(spec, length):
    # Shorter than the target rank used to raise a raw IndexError.
    with pytest.raises(InputError, match=f"expected 6 thresholds, got {length}"):
        demonstrate_failure(spec, ThresholdList.constant(length, Fraction(99, 100)))


def test_hard2_failure_stays_below_cap():
    spec = HardInstanceSpec("hard2", 6, i=4, k1=3, k2=0, t=3)
    report = demonstrate_failure(spec)
    fam = gen_hard2_responders(6, 4, 3, 0, 3)
    assert report.shortfalls[0].value < fam.alpha + 2 * fam.epsilon
    assert len(report.transcript.reductions) == 0
    assert report.transcript.ran_out_of_goods


def test_hard2_rich_bags_go_to_low_ranks():
    spec = HardInstanceSpec("hard2", 6, i=4, k1=2, k2=1, t=3)
    report = demonstrate_failure(spec)
    tr = report.transcript
    rich = 3
    assigns = [e for e in tr.bag_events if e.kind == "assign"]
    assert len(assigns) == rich
    assert sorted(e.agent for e in assigns) == list(range(rich))
    assert all(e.bag < rich for e in assigns)
