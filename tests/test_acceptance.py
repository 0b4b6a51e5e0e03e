"""Acceptance suite: one test per top-level guarantee, at full stated scale.

Each test prints a PASS line when its criterion holds; any failure is a
plain assertion failure with exact values in the message. Everything here
is exact arithmetic; no tolerance anywhere.
"""

import random
import time
from fractions import Fraction

from mmskit import (
    Allocation,
    HardInstanceSpec,
    PriorityRanking,
    bundle_value,
    check_1_out_of_d,
    check_t_mms,
    check_transcript,
    cyclic_rotation_distribution,
    demonstrate_failure,
    equivalence_expand,
    gen_hard2_responders,
    gen_ordinal_tight,
    mms,
    priority_thresholds,
    run_1_out_of_d,
    run_ordinal,
    run_rbf_truthful,
)
from mmskit.bobw import (
    integral_check_gamma,
    integral_check_hard1,
    integral_check_hard2,
    verify_gamma_bound_range,
    verify_hard_bound_range,
)
from mmskit.verify import check_unit_share_structure, check_witness

from _instances import bag_owners, random_instance, random_normalized_ordered
from _reference import mms_naive


def _announce(line: str) -> None:
    print(f"\n[PASS] {line}")


# ---------------------------------------------------------------------------
# 1. Ordinal guarantee at d = 4 * ceil(n / 3)


def test_criterion_1_ordinal_guarantee():
    rng = random.Random(2024_01)
    started = time.monotonic()
    runs = 0
    early = 0
    while runs < 500:
        n = rng.randint(1, 6)
        m = rng.randint(n, 10)
        inst = random_instance(rng, n, m, max_value=10)
        result = run_1_out_of_d(inst)
        if result.transcript is not None and result.transcript.ran_out_of_goods:
            early += 1
        for i in range(n):
            share = mms(inst, i, result.d).value
            value = bundle_value(inst, i, result.allocation.bundles[i])
            assert value >= share, (
                f"agent {i} got {value} < share {share} on {inst.valuations}"
            )
        runs += 1
    elapsed = time.monotonic() - started
    assert early == 0, f"{early} early terminations"
    assert elapsed < 300, f"took {elapsed:.1f}s, budget is 300s"
    _announce(
        f"criterion 1: ordinal guarantee exact on {runs} random instances, "
        f"0 early terminations, {elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# 2. Tight family: bag filling leaves a bag at exactly 1 - 1/(3n)


def test_criterion_2_tight_family():
    for n in range(2, 13):
        fam = gen_ordinal_tight(n)
        alloc, tr = run_ordinal(fam.instance)
        short_value = 1 - Fraction(1, 3 * n)
        assigned_values = [
            bundle_value(fam.instance, agent, alloc.bundles[agent])
            for agent in bag_owners(tr)
        ]
        assert short_value in assigned_values, (
            f"n={n}: no assigned bag worth exactly {short_value}"
        )
        if n == 5:
            assert short_value == Fraction(14, 15)
        # Unit shares: by oracle up to n = 6, by the witness partition beyond.
        if n <= 6:
            assert mms(fam.instance, 0, fam.d).value == 1
        for part in fam.witness.parts:
            assert bundle_value(fam.instance, 0, part) == 1
        assert fam.witness.ground_set == frozenset(range(fam.instance.num_goods))
    _announce(
        "criterion 2: tight family leaves a bag at exactly 1 - 1/(3n) for "
        "n = 2..12; unit shares confirmed (oracle to n = 6, witness beyond)"
    )


# ---------------------------------------------------------------------------
# 3. Threshold allocator meets every rank's target


def test_criterion_3_rbf_guarantee():
    rng = random.Random(2024_03)
    runs = 0
    while runs < 500:
        n = rng.randint(1, 6)
        m = rng.randint(max(n, 2), 12)
        inst, _ = random_normalized_ordered(rng, n, m)
        thresholds = priority_thresholds(n)
        ranking = PriorityRanking.rotation(n, rng.randrange(n))
        run = run_rbf_truthful(inst, thresholds, ranking)
        alloc, transcript = run.allocation, run.transcript
        for rank, agent in enumerate(ranking.agents_by_rank()):
            value = bundle_value(inst, agent, alloc.bundles[agent])
            assert value >= thresholds.taus[rank], (
                f"rank {rank + 1} agent {agent} got {value} < {thresholds.taus[rank]}"
            )
        report = check_transcript(transcript)
        assert report == (), report
        runs += 1
    _announce(
        f"criterion 3: per-rank thresholds met exactly on {runs} unit-share "
        f"instances; all transcripts structurally clean"
    )


# ---------------------------------------------------------------------------
# 4. hard1 family: a rank pushed above its cap goes unserved, reduction-free


def test_criterion_4_hard1_family():
    cases = 0
    for n in range(3, 9):
        for i in range(3, n + 1):
            report = demonstrate_failure(HardInstanceSpec("hard1", n, i=i))
            alpha = Fraction(3 * n, 3 * n + i - 2)
            assert report.thresholds.taus[i - 1] == alpha + Fraction(1, 1000)
            assert report.shortfalls, f"n={n} i={i}: everyone satisfied"
            assert report.shortfalls[0].agent < i, (
                f"n={n} i={i}: shortfall outside the first {i} agents"
            )
            assert len(report.transcript.reductions) == 0, (
                f"n={n} i={i}: {len(report.transcript.reductions)} reductions happened"
            )
            cases += 1
    _announce(
        f"criterion 4: hard1 shortfall reproduced for all {cases} (n, i) pairs "
        f"with zero reduction events"
    )


# ---------------------------------------------------------------------------
# 5. Rotation guarantees and the average-threshold floor


def test_criterion_5_bobw_bounds():
    started = time.monotonic()
    verify_gamma_bound_range(1, 10_000)
    sweep_elapsed = time.monotonic() - started

    rng = random.Random(2024_05)
    runs = 0
    while runs < 100:
        n = rng.randint(1, 5)
        m = rng.randint(max(n, 2), 10)
        inst, _ = random_normalized_ordered(rng, n, m)
        thresholds = priority_thresholds(n)
        gamma = sum(thresholds.taus, Fraction(0)) / n
        dist = cyclic_rotation_distribution(inst, thresholds)
        for agent in range(n):
            assert dist.ex_ante[agent] >= gamma, (
                f"agent {agent} expects {dist.ex_ante[agent]} < {gamma}"
            )
            assert dist.ex_post_min[agent] >= thresholds.taus[-1]
        runs += 1
    _announce(
        f"criterion 5: average-threshold floor certified for n = 1..10^4 "
        f"({sweep_elapsed:.1f}s); rotation expectations and minima exact on "
        f"{runs} instances"
    )


# ---------------------------------------------------------------------------
# 6. Upper-bound calculus


def test_criterion_6_upper_bound_calculus():
    started = time.monotonic()
    verify_hard_bound_range(2, 10_000)
    sweep_elapsed = time.monotonic() - started
    for n in range(2, 101):
        assert integral_check_gamma(n), f"gamma curve sandwich fails at n={n}"
        assert integral_check_hard1(n), f"hard1 curve sandwich fails at n={n}"
        assert integral_check_hard2(n), f"hard2 curve sandwich fails at n={n}"
    _announce(
        f"criterion 6: hard-family ceilings certified for n = 2..10^4 "
        f"({sweep_elapsed:.1f}s); integral sandwiches hold for n = 2..100"
    )


# ---------------------------------------------------------------------------
# 7. Oblivious adversary caps the target agent below alpha + 2 epsilon


def _admissible_hard2_params(n: int):
    for i in range(2, n + 1):
        for k1 in range(1, n // 2 + 1):
            for k2 in range(0, n - 2 * k1 + 1):
                if k1 + k2 < i:
                    yield i, k1, k2


def test_criterion_7_oblivious_adversary():
    cases = 0
    for n in range(4, 9):
        for i, k1, k2 in _admissible_hard2_params(n):
            fam = gen_hard2_responders(n, i, k1, k2, 3)
            for part in fam.witness.parts:
                assert bundle_value(fam.instance, 0, part) == 1
            report = demonstrate_failure(
                HardInstanceSpec("hard2", n, i=i, k1=k1, k2=k2, t=3)
            )
            cap = fam.alpha + 2 * fam.epsilon
            assert report.shortfalls[0].value < cap, (
                f"n={n} i={i} k1={k1} k2={k2}: {report.shortfalls[0].value} >= {cap}"
            )
            assert len(report.transcript.reductions) == 0
            cases += 1
    _announce(
        f"criterion 7: scripted runs kept the target agent below alpha + 2*eps "
        f"in all {cases} admissible configurations; witnesses unit-normalized"
    )


# ---------------------------------------------------------------------------
# 8. Structural property suite


def test_criterion_8_structural_suite():
    rng = random.Random(2024_08)

    # Ordered unit-share structure facts on 1000 instances.
    structure_runs = 0
    while structure_runs < 1000:
        n = rng.randint(1, 6)
        # Alternate d == n with free d <= 8; the bag-pair fact is checked at every d.
        d = n if structure_runs % 2 == 0 else rng.randint(1, 8)
        m = rng.randint(2 * d, 2 * d + 4)
        inst, witnesses = random_normalized_ordered(rng, n, m, d=d)
        assert check_unit_share_structure(inst, d) == ()
        assert all(check_witness(inst, i, w) == () for i, w in enumerate(witnesses))
        structure_runs += 1

    # Oracle equivalence on 300 instances.
    equivalence_runs = 0
    while equivalence_runs < 300:
        m = rng.randint(1, 9)
        d = rng.randint(1, 4)
        inst = random_instance(rng, 1, m)
        fast = mms(inst, 0, d)
        slow = mms_naive(inst, 0, d)
        assert fast.value == slow.value, (inst.valuations, d)
        equivalence_runs += 1

    # Threshold-equivalence expansion, both directions, on 200 instances.
    expansion_runs = 0
    while expansion_runs < 200:
        n, d = 2, 3
        m = rng.randint(3, 5)
        inst = random_instance(rng, n, m, max_value=6)
        expanded, thresholds = equivalence_expand(inst, d)
        ranking = PriorityRanking.identity(d)
        goods = list(range(m))
        rng.shuffle(goods)
        cuts = sorted(rng.randint(0, m) for _ in range(d - 1))
        bundles, last = [], 0
        for cut in cuts + [m]:
            bundles.append(frozenset(goods[last:cut]))
            last = cut
        alloc = Allocation(tuple(bundles))
        restricted = Allocation(
            tuple(bundles[:n]),
            unallocated=frozenset(g for b in bundles[n:] for g in b),
        )
        assert all(c.ok for c in check_t_mms(expanded, alloc, ranking, thresholds)) == (
            all(c.ok for c in check_1_out_of_d(inst, restricted, d))
        )
        expansion_runs += 1

    _announce(
        f"criterion 8: structure facts on {structure_runs} instances, oracle "
        f"equivalence on {equivalence_runs}, expansion equivalence on "
        f"{expansion_runs}"
    )
