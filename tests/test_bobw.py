"""Rotation distributions and the certified analytic bounds."""

import dataclasses
import decimal
import hashlib
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from mmskit import (
    GuaranteeViolation,
    Instance,
    InputError,
    bundle_value,
    cyclic_rotation_distribution,
    gamma_lower_bound,
    hard1_upper_bound,
    hard2_upper_bound,
    priority_thresholds,
    sample_allocation,
)
from mmskit import bobw
from mmskit.bobw import (
    fraction_to_decimal,
    integral_check_gamma,
    integral_check_hard1,
    integral_check_hard2,
    ln_enclosure,
    verify_gamma_bound_range,
    verify_hard_bound_range,
)
from mmskit.core import MAX_N

from _instances import random_normalized_ordered


# ---------------------------------------------------------------------------
# Log enclosures


def test_ln_enclosure_brackets_the_true_value():
    import math

    for p, q in [(4, 3), (10, 9), (2, 1), (7, 5), (100, 99)]:
        lo, hi = ln_enclosure(p, q)
        assert lo <= hi
        assert hi - lo < Fraction(1, 10**50)
        # The enclosure is far tighter than a float, so only sanity-check
        # the neighbourhood and the hard bracketing property exp(lo) <= p/q.
        assert abs(float(lo) - math.log(p / q)) < 1e-12
        # exp(lo) <= p/q <= exp(hi), checked via a strict rational bound on
        # exp: 1 + x <= exp(x), so lo <= ln(p/q) iff exp(lo) <= p/q; verify
        # with the series lower bound on exp at modest order.
        def exp_lower(x, terms=40):
            s, t = Fraction(1), Fraction(1)
            for k in range(1, terms):
                t *= x / k
                s += t
            return s

        assert exp_lower(lo) <= Fraction(p, q)


def test_ln_enclosure_exact_at_one():
    assert ln_enclosure(3, 3) == (0, 0)


@pytest.mark.parametrize(
    "p, q",
    [(10**100, 1), (10**100, 3), (3, 1), (2**64 + 1, 2**30), (8, 1), (10**40 + 7, 3**20)],
    ids=["10^100", "10^100/3", "3", "(2^64+1)/2^30", "8", "(10^40+7)/3^20"],
)
def test_ln_enclosure_reduces_a_large_ratio_by_powers_of_two(p, q):
    # Beyond p = 2q the series runs on p/(q * 2**k) in [1, 2): 10**100 takes
    # a few ms, where the series on p/q itself took seconds already at 100/1.
    _assert_encloses_the_log_quickly(p, q)


@pytest.mark.parametrize(
    "p, q",
    [(3**2000, 2**3169), (3**1000, 2**1584), (2**300 + 1, 2**300), (10**1000 + 1, 10**1000), (7**500, 3)],
    ids=["3^2000/2^3169", "3^1000/2^1584", "(2^300+1)/2^300", "(10^1000+1)/10^1000", "7^500/3"],
)
def test_ln_enclosure_rounds_a_ratio_of_long_terms_to_a_dyadic_one(p, q):
    # The kernel takes x = (p - q) / (p + q) to a binary fixed point in one
    # long division, so its time does not grow with the digits of p and q: an
    # exact series on 3**2000 / 2**3169 took about 4 s.
    _assert_encloses_the_log_quickly(p, q)


def _seeded_log_ratios(rng, count):
    """(p, q) with p >= q >= 1: ratios next to 1, up to 2, and far above 2q,
    with terms of one to a thousand digits."""
    cases = []
    for k in range(count):
        q = rng.randint(1, 10 ** rng.randint(0, 1000 if k % 4 == 0 else 30))
        kind = k % 3
        if kind == 0:
            p = q + rng.randint(0, min(q, 10 ** rng.randint(0, 6)))
        elif kind == 1:
            p = rng.randint(q, 2 * q)
        else:
            p = q * rng.randint(2, 10 ** rng.randint(1, 60)) + rng.randint(0, q - 1)
        cases.append((p, q))
    return cases


def _reference_ln(p, q, digits=120):
    with decimal.localcontext() as context:
        context.prec = digits
        return Fraction(decimal.Decimal(p).ln() - decimal.Decimal(q).ln())


def test_ln_enclosure_agrees_with_a_decimal_reference():
    # A differential test of the fixed-point kernel against decimal's ln at
    # 120 digits, on 300 seeded ratios.
    for p, q in _seeded_log_ratios(random.Random(35), 300):
        _assert_encloses_the_log_quickly(p, q)


@pytest.mark.parametrize("bits", [64, 128, 200, 320])
def test_the_atanh_series_enclose_the_log_at_their_own_precision(bits):
    # The series on their own, before the kernel's guard bits are rounded
    # away: a term rounded the wrong way or a dropped tail bound moves an end
    # past the value by many units of 2**-bits, where behind the guard bits
    # it would move it by a fraction of one.
    ratios = [(2, 1), (4, 3), (10, 9)] + _seeded_log_ratios(random.Random(bits), 120)
    for p, q in ratios:
        k = p.bit_length() - q.bit_length()
        q <<= k - (p < q << k)  # p / q in [1, 2), where x = (p - q) / (p + q) < 1/3
        lo, hi = bobw._atanh_fixed(p - q, p + q, bits)
        true = _reference_ln(p, q, 160) * 2**bits
        slack = Fraction(2**bits, 10**140)
        assert lo - slack <= true <= hi + slack, (p, q)
        assert hi - lo < 2**bobw.GUARD_BITS


def _assert_encloses_the_log_quickly(p, q):
    true = _reference_ln(p, q)
    start = time.perf_counter()
    lo, hi = ln_enclosure(p, q)
    assert time.perf_counter() - start < 0.1
    assert hi - lo < Fraction(1, 10**bobw.ENCLOSURE_DIGITS)
    slack = Fraction(1, 10**100)  # the 120-digit reference's own error
    assert lo - slack <= true <= hi + slack


def test_fraction_to_decimal():
    assert fraction_to_decimal(Fraction(1, 8)) == "0.125" + "0" * 47
    assert fraction_to_decimal(Fraction(-1, 3)) == "-0." + "3" * 50
    assert fraction_to_decimal(2) == "2." + "0" * 50
    # A float or a string was a raw AttributeError or TypeError.
    for value in (0.5, "1/3", None, True):
        with pytest.raises(InputError, match="value must be an integer, got "):
            fraction_to_decimal(value)


# ---------------------------------------------------------------------------
# Rotation distribution


def test_single_agent_distribution():
    inst = Instance.from_rows([[1]])
    dist = cyclic_rotation_distribution(inst, priority_thresholds(1))
    assert len(dist.support) == 1
    assert dist.ex_ante == dist.ex_post_min


def test_each_agent_cycles_through_every_rank():
    inst, _ = random_normalized_ordered(random.Random(0), 4, 9)
    dist = cyclic_rotation_distribution(inst, priority_thresholds(4))
    for agent in range(4):
        ranks = sorted(ranking.rank_of[agent] for ranking, _ in dist.support)
        assert ranks == [0, 1, 2, 3]


def test_symmetric_instance_gives_equal_expectations():
    # Identical agents and fully symmetric goods.
    n, m = 3, 6
    inst = Instance.from_rows([[Fraction(1, 2)] * m] * n)
    dist = cyclic_rotation_distribution(inst, priority_thresholds(n))
    assert len(set(dist.ex_ante)) == 1
    assert dist.ex_post_min[0] >= priority_thresholds(n).taus[-1]


def test_rotation_guarantees_on_random_instances():
    rng = random.Random(1)
    for _ in range(15):
        n = rng.randint(2, 4)
        m = rng.randint(n + 1, 9)
        inst, _ = random_normalized_ordered(rng, n, m)
        thresholds = priority_thresholds(n)
        dist = cyclic_rotation_distribution(inst, thresholds)
        gamma = sum(thresholds.taus, Fraction(0)) / n
        for agent in range(n):
            assert dist.ex_ante[agent] >= gamma
            assert dist.ex_post_min[agent] >= thresholds.taus[-1]
            values = [bundle_value(inst, agent, alloc.bundles[agent]) for _, alloc in dist.support]
            assert (dist.ex_ante[agent], dist.ex_post_min[agent]) == (sum(values, Fraction(0)) / n, min(values))


def test_rotation_distribution_rejects_unordered_and_non_unit_instances():
    thresholds = priority_thresholds(2)
    quarter, half = Fraction(1, 4), Fraction(1, 2)
    unordered = Instance.from_rows([[half, quarter, half, 3 * quarter]] * 2)
    non_unit = Instance.from_rows([[1, 1, 1, 0]] * 2)
    for inst in (unordered, non_unit):
        with pytest.raises(InputError):
            cyclic_rotation_distribution(inst, thresholds)


def test_sampling_is_reproducible_and_validated():
    inst, _ = random_normalized_ordered(random.Random(2), 3, 7)
    dist = cyclic_rotation_distribution(inst, priority_thresholds(3))
    assert sample_allocation(dist, 123) == sample_allocation(dist, 123)
    with pytest.raises(InputError):
        sample_allocation(dist, -1)
    with pytest.raises(InputError):
        sample_allocation(dist, 2**64)
    empty = bobw.AllocationDistribution((), (), ())
    with pytest.raises(InputError, match=r"^cannot sample from a distribution with an empty support$"):
        sample_allocation(empty, 0)


# ---------------------------------------------------------------------------
# Average-threshold floor


def test_gamma_n1_is_one():
    exact, bound = gamma_lower_bound(1)
    assert exact == 1
    assert bound.startswith("0.8531")


def test_gamma_matches_direct_summation():
    for n in (*range(1, 40), 97, 300, 1000):
        exact, _ = gamma_lower_bound(n)
        direct = sum(
            max(Fraction(2 * n, 2 * n + i - 1), Fraction(3, 4) + Fraction(1, 12 * n))
            for i in range(1, n + 1)
        ) / n
        assert exact == direct


def test_gamma_approaches_its_asymptote():
    exact, _ = gamma_lower_bound(10000)
    # 2 ln(4/3) + 1/4 is about 0.82536
    assert Fraction(82, 100) < exact < Fraction(87, 100)


def test_gamma_range_checker_runs():
    verify_gamma_bound_range(1, 300)


# ---------------------------------------------------------------------------
# Hard-family ceilings


def test_hard1_small_values():
    exact, _ = hard1_upper_bound(2)
    assert exact == 1  # the rank sum over 3..2 is empty
    exact, _ = hard1_upper_bound(3)
    assert exact == Fraction(29, 30)


def test_hard1_matches_direct_summation():
    for n in (*range(2, 40), 97, 300, 1000):
        exact, _ = hard1_upper_bound(n)
        direct = (2 + sum(Fraction(3 * n, 3 * n + i - 2) for i in range(3, n + 1))) / n
        assert exact == direct


def test_hard2_small_values():
    exact, _ = hard2_upper_bound(1)
    assert exact == 1


def test_hard2_matches_direct_summation():
    for n in (*range(1, 40), 97, 300, 1000):
        exact, _ = hard2_upper_bound(n)
        direct = sum(
            min(
                Fraction(3 * n, 3 * n + i - 2),
                max(Fraction(5, 6), 1 - Fraction(i - 1, 3 * n)),
            )
            for i in range(1, n + 1)
        ) / n
        assert exact == direct


_PINNED_NS = [*range(1, 301), 997, 1000, 2024, 4001, 5000, 9999, MAX_N]


def test_the_closed_forms_are_pinned():
    # A digest of each closed form's exact average, in hex (a 40k-bit value
    # is past Python's digit limit for str), and its decimal bound string.
    digest = hashlib.sha256()
    for closed_form, least_n in ((gamma_lower_bound, 1), (hard1_upper_bound, 2), (hard2_upper_bound, 1)):
        for n in _PINNED_NS[least_n - 1:]:
            exact, bound = closed_form(n)
            digest.update(f"{n} {exact.numerator:x}/{exact.denominator:x} {bound}\n".encode())
    assert digest.hexdigest() == "9d4669e30d92eab48d7b77460a8069ab37c1d2c64b326095d3ed5ba1ab89ca49"


def test_hard_bounds_approach_their_asymptotes():
    exact1, _ = hard1_upper_bound(10000)
    assert Fraction(85, 100) < exact1 < Fraction(87, 100)  # ~0.86305
    exact2, _ = hard2_upper_bound(10000)
    assert Fraction(84, 100) < exact2 < Fraction(86, 100)  # ~0.8578


def test_hard_range_checker_runs():
    verify_hard_bound_range(1, 300)


# ---------------------------------------------------------------------------
# Exact harmonic windows


def _lcm_form(a, b):
    L = math.lcm(*range(a, b + 1))  # 1 for an empty window
    return sum(L // j for j in range(a, b + 1)), L


def _block_windows():
    # For a few aligned blocks [start, end]: the block, one term short or long
    # at either end, a window inside it, and windows of several blocks that
    # start or end on a boundary, one term before it or one term after it.
    # Then windows that split into a run of three blocks at a multiple of
    # three blocks, [9, 12) and [12, 15) in blocks, or are one, [3, 6).
    windows = []
    for k in (1, 2, 40, 77, 78):  # block 77 is the last inside 4 * MAX_N
        start = k * bobw.BLOCK_TERMS
        end = start + bobw.BLOCK_TERMS - 1
        windows += [(start, end), (start, end - 1), (start, end + 1), (start - 1, end), (start + 1, end)]
        windows.append((start + 10, start + 300))
        for d in (-1, 0, 1):
            windows += [(start + d, start + d + 1500), (max(1, end + d - 1500), end + d)]
    B = bobw.BLOCK_TERMS
    return windows + [(9 * B, 13 * B), (9 * B + 5, 15 * B - 1), (3 * B, 6 * B - 1)]


def _assert_the_table_holds_aligned_runs():
    # Each key is an aligned run of BLOCK_TERMS * 2**i terms inside [1, 4 * MAX_N].
    for a, b in bobw._BLOCKS:
        run = b + 1 - a
        assert 0 < a and b <= 4 * MAX_N and run % bobw.BLOCK_TERMS == 0, (a, b)
        assert run & (run - 1) == 0 and a % run == 0, (a, b)


def test_the_window_pair_is_exactly_the_lcm_form():
    # Each window's sum is (sum L // j) / L with L = lcm(a..b), reduced,
    # wherever it splits. Windows of LEAF_TERMS - 1 to LEAF_TERMS + 1
    # terms sit on either side of the direct sum. Each window is summed from an
    # empty block table and again after all the others have filled it, and
    # the table then holds only aligned runs.
    windows = [(5, 4), (1, 0), (7, 7), (1, 1), (1, 2), (1, 30), (250, 260), (1000, 1030), (4090, 4100)]
    windows += [(100, 100 + bobw.LEAF_TERMS + k) for k in (-2, -1, 0)]
    rng = random.Random(27)
    for _ in range(40):
        a = rng.randint(1, 3000)
        windows.append((a, a + rng.randint(0, 400)))
    for bound in (bobw._GAMMA, bobw._HARD1, bobw._HARD2):
        *_, a, b = bound.split(MAX_N)
        windows.append((a, b))
    windows += _block_windows()
    sums = [Fraction(*_lcm_form(a, b)) for a, b in windows]
    for (a, b), total in zip(windows, sums):
        bobw._BLOCKS.clear()
        assert bobw._reciprocal_range_sum(a, b) == total, (a, b)
    for (a, b), total in zip(windows, sums):
        assert bobw._reciprocal_range_sum(a, b) == total, (a, b)
    _assert_the_table_holds_aligned_runs()


def test_a_window_after_others_partly_filled_the_block_table_is_the_lcm_form():
    # Random windows inside [1, 4 * MAX_N], each summed after up to three
    # other random windows have kept some of its blocks, and the table is
    # emptied now and then, so a window mixes kept and fresh blocks.
    rng = random.Random(39)
    bobw._BLOCKS.clear()
    for _ in range(60):
        if rng.random() < 0.2:
            bobw._BLOCKS.clear()
        for _ in range(rng.randint(0, 3)):
            a = rng.randint(1, 4 * MAX_N)
            bobw._reciprocal_range_sum(a, min(a + rng.randint(0, 5000), 4 * MAX_N))
        a = rng.randint(1, 4 * MAX_N)
        b = min(a + rng.randint(0, 10 ** rng.randint(1, 4)), 4 * MAX_N)
        assert bobw._reciprocal_range_sum(a, b) == Fraction(*_lcm_form(a, b)), (a, b)


def test_a_window_sum_is_the_sum_of_its_two_parts():
    # A window cut anywhere sums to its two parts: at, one term before and one
    # term after the boundaries of aligned runs of 1 to 32 blocks, with seeded
    # ends up to one run away, some past 4 * MAX_N, and the table emptied
    # now and then, so each side mixes kept and fresh runs.
    rng = random.Random(40)
    bobw._BLOCKS.clear()
    for i in range(6):
        size = bobw.BLOCK_TERMS << i
        for k in rng.sample(range(1, (4 * MAX_N + size) // size + 1), 2):
            for m in (k * size - 1, k * size, k * size + 1):
                if rng.random() < 0.2:
                    bobw._BLOCKS.clear()
                a, b = rng.randint(max(1, m - size), m), rng.randint(m, m + size)
                whole = bobw._reciprocal_range_sum(a, b)
                assert bobw._reciprocal_range_sum(a, m) + bobw._reciprocal_range_sum(m + 1, b) == whole, (a, m, b)
    _assert_the_table_holds_aligned_runs()


def test_the_block_table_holds_only_aligned_blocks_inside_its_bound():
    src = os.path.dirname(os.path.dirname(os.path.abspath(bobw.__file__)))
    fresh = subprocess.run(
        [sys.executable, "-c", "import mmskit.bobw as bobw; print(len(bobw._BLOCKS))"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert fresh.stdout == "0\n", fresh.stderr  # import fills nothing
    bobw._BLOCKS.clear()
    for closed_form in (gamma_lower_bound, hard1_upper_bound, hard2_upper_bound):
        closed_form(MAX_N)
    most = 2 * (4 * MAX_N // bobw.BLOCK_TERMS)  # a binary tree over the blocks inside the bound
    assert 0 < len(bobw._BLOCKS) <= most
    bobw._reciprocal_range_sum(1, 4 * MAX_N)  # every aligned run inside the bound
    assert len(bobw._BLOCKS) <= most
    _assert_the_table_holds_aligned_runs()
    for (a, b), total in bobw._BLOCKS.items():
        assert total == Fraction(*_lcm_form(a, b)), (a, b)
    full = dict(bobw._BLOCKS)
    a = 4 * MAX_N // bobw.BLOCK_TERMS * bobw.BLOCK_TERMS  # the first block that ends past 4 * MAX_N
    b = a + 3 * bobw.BLOCK_TERMS - 1
    assert bobw._reciprocal_range_sum(a, b) == Fraction(*_lcm_form(a, b))
    assert bobw._BLOCKS == full


def test_a_warm_window_sum_reads_its_whole_blocks(monkeypatch):
    # Machine-independent cost of the closed forms' window sum: the leaf sums,
    # merges and block-table reads of hard1's 9,998-term window at n = 10^4,
    # from an empty table and again once its aligned runs are kept. The warm
    # window reads five runs, [59, 60), [60, 64), [64, 72), [72, 76) and
    # [76, 78) in blocks, the largest that fit.
    original = bobw._reciprocal_range_sum
    counts = {"leaf": 0, "merge": 0, "read": 0}
    calls = 0

    def counting(a, b):
        nonlocal calls
        calls += 1
        before = calls
        total = original(a, b)
        counts["leaf" if b - a < bobw.LEAF_TERMS else "merge" if calls > before else "read"] += 1
        return total

    monkeypatch.setattr(bobw, "_reciprocal_range_sum", counting)
    bobw._BLOCKS.clear()
    cold = hard1_upper_bound(MAX_N)
    assert counts == {"leaf": 314, "merge": 313, "read": 0}
    counts.update(leaf=0, merge=0, read=0)
    assert hard1_upper_bound(MAX_N) == cold
    assert counts == {"leaf": 10, "merge": 14, "read": 5}


def test_the_hard1_closed_form_carries_a_window_lcm_not_a_product():
    # Machine-independent cost of the closed forms: at n = 10^4 the hard1
    # average's denominator is 40,953 bits in lowest terms, 40,973 over the
    # window's lcm and 150,885 over the product of its terms.
    exact = bobw._certify(bobw._HARD1, MAX_N)
    assert exact.denominator.bit_length() <= 45_000


# The least a - 1 at which Euler-Maclaurin's remainder bound is one unit of
# 2**-WINDOW_BITS, so that a sweep's first window starts from the enclosure.
EM_LEAST = 1179


def test_the_euler_maclaurin_enclosure_contains_the_exact_window_sum():
    # 200 seeded windows with a - 1 from EM_LEAST to 4 * MAX_N, the three
    # bounds' windows at n = MAX_N, and 40 windows below EM_LEAST, where the
    # remainder bound is many units wide and only it keeps the sum inside.
    assert bobw._em_remainder(EM_LEAST - 1) > 1 == bobw._em_remainder(EM_LEAST)
    rng = random.Random(35)
    above = [EM_LEAST, EM_LEAST + 1, 4 * MAX_N] + [rng.randint(EM_LEAST, 4 * MAX_N) for _ in range(197)]
    below = [1, 2] + [rng.randint(1, EM_LEAST - 1) for _ in range(38)]
    windows = [(m + 1, m + 1 + rng.randint(0, 10 ** rng.randint(0, 3))) for m in above]
    windows += [bound.split(MAX_N)[3:] for bound in (bobw._GAMMA, bobw._HARD1, bobw._HARD2)]
    windows += [(m + 1, m + 1 + rng.randint(0, 300)) for m in below]
    for a, b in windows:
        lo, hi = bobw._harmonic_enclosure(a, b)
        total = bobw._reciprocal_range_sum(a, b)
        p, q = total.numerator, total.denominator
        assert lo * q <= p << bobw.WINDOW_BITS <= hi * q, (a, b)
        if a - 1 >= EM_LEAST:
            assert hi - lo <= 5


# ---------------------------------------------------------------------------
# Integral sandwich


def _curves(n):
    """Each sandwich's curve at n, tabulated rank by rank as (numerator,
    denominator) pairs, which compare and add far faster than Fractions:
    gamma's is the thresholds, and hard1's starts at rank 2."""

    def low(u, v):
        return u if u[0] * v[1] <= v[0] * u[1] else v

    def high(u, v):
        return v if low(u, v) is u else u

    curves = {
        "gamma": [high((2 * n, 2 * n + x), (9 * n + 1, 12 * n)) for x in range(n)],
        "hard2": [low((3 * n, 3 * n + x - 1), high((5, 6), (3 * n - x, 3 * n))) for x in range(n)],
    }
    if n >= 2:
        curves["hard1"] = [(3 * n, 3 * n + x) for x in range(n - 1)]
    return curves


def test_a_sum_inside_the_log_enclosure_is_not_certified():
    # Place sum f at the midpoint of f(b) + I (then of f(a) + I), where I's
    # log enclosure cannot decide the comparison: only the conservative end
    # of each side may certify it, so a swap of lo and hi would say True.
    n = 10
    values = [Fraction(*v) for v in _curves(n)["hard1"]]
    arg = Fraction(4 * n - 2, 3 * n)
    lo, hi = ln_enclosure(arg.numerator, arg.denominator)
    assert lo < hi
    total = sum(values)
    for end in (values[-1], values[0]):
        exact = total - end - 3 * n * (lo + hi) / 2
        assert not bobw._sandwich(bobw._HARD1, n, values[-1], exact, 3 * n, arg)
    assert bobw._sandwich(bobw._HARD1, n, values[-1], Fraction(0), 3 * n, arg)


def test_a_constant_curve_with_a_rational_integral_is_certified_at_equality():
    # At its least n each curve is the one value 1, and its integral over [0, 0] is 0.
    for bound in (bobw._GAMMA, bobw._HARD1, bobw._HARD2):
        n = bound.least_n
        assert bobw._sandwich(bound, n, Fraction(1), Fraction(0), 0, Fraction(4, 3))
        assert not bobw._sandwich(bound, n, Fraction(1), Fraction(1, 10**60), 0, Fraction(4, 3))
        assert not bobw._sandwich(bound, n, Fraction(1), -Fraction(1, 10**60), 0, Fraction(4, 3))


@pytest.mark.parametrize("n", [2, 3, 7, 30, 101])
@pytest.mark.parametrize(
    "name, bound, closed_form, extra",
    [("gamma", bobw._GAMMA, gamma_lower_bound, 0), ("hard1", bobw._HARD1, hard1_upper_bound, -1),
     ("hard2", bobw._HARD2, hard2_upper_bound, 0)],
    ids=["gamma", "hard1", "hard2"],
)
def test_each_sandwich_curve_sums_to_its_bound_record(name, bound, closed_form, extra, n):
    # The tabulated curve and the bound's record split the same rank sum, and
    # the sandwich compares exactly that sum. The hard1 curve counts rank 1
    # once, where the bound counts ranks 1 and 2.
    total = sum(Fraction(*v) for v in _curves(n)[name])
    assert total == n * closed_form(n)[0] + extra
    assert bobw._sandwich(bound, n, Fraction(1), total - 1, 0, Fraction(1))
    assert not bobw._sandwich(bound, n, Fraction(1), total - 1 + Fraction(1, 10**60), 0, Fraction(1))


def test_each_sandwich_curve_matches_its_tabulated_reference(monkeypatch):
    # The checks list no curve: each reads its rank sum from its bound record
    # and states its last value in closed form. Each tabulated curve must not
    # rise, must run from 1 to the last value its check passes, and must sum
    # to the total the sandwich compares, which a zero-width integral with
    # f(b) = f(a) = 1 pins exactly.
    sandwich, passed = bobw._sandwich, []

    def recording_sandwich(bound, n, last, *args):
        passed.append((bound, n, last))
        return sandwich(bound, n, last, *args)

    monkeypatch.setattr(bobw, "_sandwich", recording_sandwich)
    checks = {
        "gamma": (integral_check_gamma, bobw._GAMMA),
        "hard1": (integral_check_hard1, bobw._HARD1),
        "hard2": (integral_check_hard2, bobw._HARD2),
    }
    for n in [*range(1, 301), 1000, 2001]:
        for name, values in _curves(n).items():
            check, bound = checks[name]
            passed.clear()
            assert check(n), (name, n)
            assert passed == [(bound, n, Fraction(*values[-1]))], (name, n)
            assert Fraction(*values[0]) == 1, (name, n)
            assert all(q * u <= p * v for (p, q), (u, v) in zip(values, values[1:])), (name, n)
            L = math.lcm(*(q for _, q in values))
            total = Fraction(sum(p * (L // q) for p, q in values), L)
            assert sandwich(bound, n, Fraction(1), total - 1, 0, Fraction(1)), (name, n)
    for n in (1, 2, 7, 300, 2001):
        assert priority_thresholds(n).taus == tuple(Fraction(*v) for v in _curves(n)["gamma"])


def test_proof_curves_for_small_sizes():
    for n in range(1, 60):
        assert integral_check_gamma(n)
        assert integral_check_hard2(n)
        if n >= 2:
            assert integral_check_hard1(n)


# ---------------------------------------------------------------------------
# The certified-bound engine


_BOUND_CALLS = [
    (gamma_lower_bound, ()),
    (hard1_upper_bound, ()),
    (hard2_upper_bound, ()),
    (verify_gamma_bound_range, (3,)),  # a sweep's lo, up to hi = 3
    (verify_hard_bound_range, (3,)),
    (integral_check_gamma, ()),
    (integral_check_hard1, ()),
    (integral_check_hard2, ()),
]


@pytest.mark.parametrize("n", [-1, 0])
@pytest.mark.parametrize(
    "function, extra_args", _BOUND_CALLS, ids=[f.__name__ for f, _ in _BOUND_CALLS]
)
def test_every_bound_function_rejects_n_below_one(function, extra_args, n):
    with pytest.raises(InputError):
        function(n, *extra_args)


@pytest.mark.parametrize("n", [2.5, "2", None, True], ids=repr)
@pytest.mark.parametrize(
    "function, extra_args", _BOUND_CALLS, ids=[f.__name__ for f, _ in _BOUND_CALLS]
)
def test_every_bound_function_rejects_an_n_that_is_not_an_int(function, extra_args, n):
    # A float or string was a raw TypeError, and True was taken as n = 1.
    with pytest.raises(InputError, match="n must be an integer"):
        function(n, *extra_args)
    if extra_args:  # a sweep checks its hi too, even when the range is empty
        for lo in (1, 5):
            with pytest.raises(InputError, match="n must be an integer"):
                function(lo, n)


@pytest.mark.parametrize(
    "function, extra_args", _BOUND_CALLS, ids=[f.__name__ for f, _ in _BOUND_CALLS]
)
def test_every_bound_function_caps_n(function, extra_args):
    # n = 10**30 never returned; the cap turns it into an InputError at once.
    for n in (MAX_N + 1, 10**30):
        with pytest.raises(InputError, match=f"n must be <= {MAX_N}, got {n}$"):
            if extra_args:  # a sweep caps its hi
                function(1, n)
            else:
                function(n)


def test_an_empty_sweep_is_a_no_op():
    verify_gamma_bound_range(0, -1)
    verify_hard_bound_range(5, 4)


def _moved(bound, constants):
    """``bound`` with its constant replaced by ``constants[n]`` at each n the dict holds."""

    class Moved(bobw._AverageBound):
        def target(self, n):
            if n not in constants:
                return super().target(n)
            moved = n * constants[n]
            return moved.numerator, moved.denominator

    return Moved(**{field.name: getattr(bound, field.name) for field in dataclasses.fields(bound)})


@pytest.mark.parametrize(
    "record, closed_form, sweep",
    [
        ("_GAMMA", gamma_lower_bound, verify_gamma_bound_range),
        ("_HARD1", hard1_upper_bound, verify_hard_bound_range),
        ("_HARD2", hard2_upper_bound, verify_hard_bound_range),
    ],
)
def test_a_bound_moved_past_the_exact_average_fails(monkeypatch, record, closed_form, sweep):
    # At n the bound's constant is replaced by the exact average, then by the
    # exact average moved 1/10^6 to the failing side; other n keep theirs. At
    # n = 9000 the sweep's window holds thousands of terms, so the tie and the
    # failure both reach the exact fallback from a fixed-point enclosure.
    bound = getattr(bobw, record)
    step = Fraction(1, 10**6) if bound.floor else -Fraction(1, 10**6)
    for n in (5, 9000):
        exact, _ = closed_form(n)
        for shift, fails in ((0, False), (step, True)):
            moved = _moved(bound, {n: exact + shift})
            monkeypatch.setattr(bobw, record, moved)
            if fails:
                with pytest.raises(GuaranteeViolation, match=f"n={n}$"):
                    closed_form(n)
                with pytest.raises(GuaranteeViolation, match=f"n={n}$"):
                    sweep(n - 1, n + 1)
            else:  # both comparisons are inclusive
                assert closed_form(n)[0] == exact
                sweep(n - 1, n + 1)
        monkeypatch.setattr(bobw, record, bound)


@pytest.mark.parametrize(
    "record, true_constant",
    [
        ("_GAMMA", lambda n: 2 * _reference_ln(4, 3) + Fraction(1, 4) + Fraction(1, 36 * n)),
        ("_HARD1", lambda n: 3 * _reference_ln(4, 3) + Fraction(1, 2 * n)),
        ("_HARD2", lambda n: Fraction(13, 24) + 3 * _reference_ln(10, 9) + Fraction(1, 3 * n)),
    ],
)
def test_each_constant_lies_on_its_safe_side_of_the_true_value(record, true_constant):
    # A floor's constant is at or above the true value and a ceiling's at or
    # below it, by at most three log widths. The two ends of a log enclosure
    # lie about 10**-55 apart, past the 50 digits a closed form renders, so
    # only this comparison tells which end a record reads.
    bound = getattr(bobw, record)
    slack = Fraction(1, 10**100)  # the 120-digit reference's own error
    for n in (1, 2, 3, 10, 997, MAX_N):
        top, bottom = bound.target(n)
        gap = Fraction(top, n * bottom) - true_constant(n)
        if not bound.floor:
            gap = -gap
        assert -slack <= gap < Fraction(3, 10**bobw.ENCLOSURE_DIGITS), n


def test_the_full_sweeps_need_no_exact_fallback(monkeypatch):
    # The machine-independent cost of criteria 5 and 6: every n up to 10^4
    # is proved by its window enclosure alone.
    fallbacks = []
    monkeypatch.setattr(bobw, "_certify", lambda bound, n: fallbacks.append((bound.name, n)))
    verify_gamma_bound_range(1, 10_000)
    verify_hard_bound_range(1, 10_000)
    assert fallbacks == []


def _assert_sweep_verdicts_are_exact(monkeypatch, record, lo, hi):
    # Each n gets a constant at a seeded offset from its exact average: far on
    # either side, inside the window enclosure's width, or a tie. One sweep over
    # n = lo..hi must fail exactly the n whose offset is on the failing side;
    # a failure is recorded, not raised, so the sweep goes on sliding its window.
    bound = getattr(bobw, record)
    sweep = verify_gamma_bound_range if record == "_GAMMA" else verify_hard_bound_range
    rng = random.Random(11)
    offsets = [0, Fraction(1, 10**6), Fraction(1, 10**30), Fraction(1, 10**45)]
    constants, expected = {}, set()
    for n in range(max(lo, bound.least_n), hi + 1):
        offset = rng.choice((-1, 1)) * rng.choice(offsets)
        constants[n] = bobw._certify(bound, n) + offset
        if (offset > 0) if bound.floor else (offset < 0):
            expected.add(n)
    moved = _moved(bound, constants)
    assert 0 < len(expected) < len(constants)

    certify = bobw._certify
    failed = set()

    def recording_certify(b, n):
        try:
            return certify(b, n)
        except GuaranteeViolation:
            assert b is moved
            failed.add(n)

    monkeypatch.setattr(bobw, record, moved)
    monkeypatch.setattr(bobw, "_certify", recording_certify)
    sweep(lo, hi)
    assert failed == expected


@pytest.mark.parametrize("record", ["_GAMMA", "_HARD1", "_HARD2"])
def test_the_sweep_verdict_equals_the_exact_verdict(monkeypatch, record):
    _assert_sweep_verdicts_are_exact(monkeypatch, record, 1, 1500)


@pytest.mark.parametrize("record", ["_GAMMA", "_HARD1", "_HARD2"])
def test_a_sweep_from_the_euler_maclaurin_window_keeps_the_exact_verdict(monkeypatch, record):
    # At n = 9000 each bound's first window starts from _harmonic_enclosure.
    _assert_sweep_verdicts_are_exact(monkeypatch, record, 9000, 9023)


def test_a_tie_goes_to_the_exact_engine(monkeypatch):
    # For n <= 5 the hard2 window is empty, so a sweep's rank sum is exact,
    # and a constant equal to the exact average is a tie. A sweep proves only
    # a strict margin and leaves each tie to _certify, which accepts it.
    exact = {n: bobw._certify(bobw._HARD2, n) for n in range(1, 6)}
    assert all(a > b for *_, a, b in map(bobw._HARD2.split, exact))
    certify, ties = bobw._certify, []

    def recording_certify(bound, n):
        ties.append((bound.name, n))
        return certify(bound, n)

    monkeypatch.setattr(bobw, "_HARD2", _moved(bobw._HARD2, exact))
    monkeypatch.setattr(bobw, "_certify", recording_certify)
    verify_hard_bound_range(1, 5)
    assert ties == [("hard2 ceiling", n) for n in exact]


def test_a_window_that_only_loses_terms_keeps_the_exact_verdict(monkeypatch):
    # A term that leaves lowers the window's lower end by one unit more than
    # its floor. Here three terms leave at each n and none enter, so without
    # that unit the lower end would pass the exact sum within a few n.
    # The constant 1/n - 1 is at most 0, below every average of this floor.
    shrinking = dataclasses.replace(
        bobw._GAMMA, split=lambda n: (0, 1, 1, EM_LEAST + 3 * n, 2000), log=(0, 1, 1), rational=(-1, 1), r=1
    )
    monkeypatch.setattr(bobw, "_GAMMA", shrinking)
    _assert_sweep_verdicts_are_exact(monkeypatch, "_GAMMA", 1, 120)


def test_a_sweep_sums_only_the_terms_that_move(monkeypatch):
    # Machine-independent cost of a sweep at the top of the range: with each
    # first window summed term by term, these two sweeps summed 6,743 and
    # 14,248 terms.
    fixed_sum = bobw._fixed_sum
    terms = []

    def counting_fixed_sum(a, b):
        terms.append(max(0, b - a + 1))
        return fixed_sum(a, b)

    monkeypatch.setattr(bobw, "_fixed_sum", counting_fixed_sum)
    verify_gamma_bound_range(9981, 10_000)
    assert sum(terms) == 89
    terms.clear()
    verify_hard_bound_range(9981, 10_000)
    assert sum(terms) == 278


def test_a_sweep_from_any_base_past_the_threshold_needs_no_exact_fallback(monkeypatch):
    # Every sweep of 20 n that the analysis workload may run from a base where
    # a first window starts from the enclosure: the first such base of each
    # bound, the last base, and every 61st base between.
    fallbacks = []
    monkeypatch.setattr(bobw, "_certify", lambda bound, n: fallbacks.append((bound.name, n)))
    firsts = [next(n for n in range(2, MAX_N) if bound.split(n)[3] - 1 >= EM_LEAST)
              for bound in (bobw._GAMMA, bobw._HARD1, bobw._HARD2)]
    for base in sorted({*firsts, *range(min(firsts), 10_000 - 19, 61), 10_000 - 19}):
        verify_gamma_bound_range(base, base + 19)
        verify_hard_bound_range(base, base + 19)
    assert fallbacks == []
