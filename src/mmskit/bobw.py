"""Randomized rank rotations and analytic bound verification.

The distribution layer runs the threshold allocator once per cyclic shift of
the priority ranking and aggregates exact per-agent expectations. The bound
layer certifies inequalities that mix exact rational sums with logarithms.
One integer kernel, ``_ln_fixed``, encloses every logarithm on a binary fixed
point: the atanh series rounded down, and rounded up with an explicit
geometric tail bound. ``ln_enclosure`` returns its ends as dyadic fractions
at 55+ decimal digits, so every certified comparison is a plain rational
comparison.

Each averaged bound is one ``_AverageBound``. Range sweeps decide each n from
an integer enclosure of the bound's harmonic window in units of
2**-WINDOW_BITS. A sweep's first window starts from Euler-Maclaurin (the
kernel's log, five Bernoulli terms, and a remainder bounded by the first
omitted term) once that remainder is below one unit, and from a direct sum
of ``2**WINDOW_BITS // j`` before; each later window slides from the last
one by the terms that enter and leave, in O(1) memory. The sweeps and the
exact engine, ``_certify``, share one integer comparison, ``_margin``. The
exact rank sum, ``_rank_sum``, sums the window by binary splitting (Haible and
Papanikolaou, 1998) and adds its parts as fractions in lowest terms, whose
denominators divide lcm(a, ..., b), not the product of the terms. A sum in
lowest terms is unique, so it does not depend on where a window splits: a
window splits at the multiple of BLOCK_TERMS with the most trailing zeros, and
the sum of each aligned run of BLOCK_TERMS * 2**i terms inside [1, 4 * MAX_N]
is kept for the process on first use. The windows of different n overlap, so
a later window reads a few runs and sums only its two partial ends. No step
runs a gcd over the full-size numerator and denominator: an addition takes
gcds of the two denominators and of their common factor only. The exact
engine reads it for the closed forms and every
n the enclosure cannot prove, so each ``GuaranteeViolation`` comes from it;
each integral sandwich reads it for its curve, so no curve is listed value by
value.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Callable

from .core import MAX_N, Allocation, Instance, PriorityRanking, ThresholdList, check_int, short_repr
from .errors import GuaranteeViolation, InputError
from .rbf import run_rbf_truthful

ENCLOSURE_DIGITS = 55
DECIMAL_DIGITS = 50  # digits after the point in a rendered closed form
WINDOW_BITS = 128  # fixed point of a sweep's window sum
LN_BITS = (10**ENCLOSURE_DIGITS).bit_length() + 1  # two units of 2**-LN_BITS are below 10**-ENCLOSURE_DIGITS
GUARD_BITS = 12  # the log kernel's series run this many bits finer than the ends it returns
LEAF_TERMS = 32  # an exact window of at most this many terms is summed directly
BLOCK_TERMS = 512  # an exact window reads each aligned run of this many terms times 2**i from _BLOCKS


# ---------------------------------------------------------------------------
# Rational log enclosures and decimal rendering


def ln_enclosure(p: int, q: int) -> tuple[Fraction, Fraction]:
    """Dyadic lower/upper bounds on ln(p/q), width below 10**-ENCLOSURE_DIGITS.

    Requires p >= q >= 1. The ends are ``_ln_fixed(p, q, LN_BITS)`` over
    2**LN_BITS, at most two units apart. The kernel takes p/q to a fixed point
    in one long division, so the time does not grow with the digits of p and q.
    """
    check_int("p", p)
    check_int("q", q, 1)
    if p < q:
        raise InputError(f"ln_enclosure needs p >= q >= 1, got {short_repr(p)}/{short_repr(q)}")
    lo, hi = _ln_fixed(p, q, LN_BITS)
    return Fraction(lo, 1 << LN_BITS), Fraction(hi, 1 << LN_BITS)


def _ln_fixed(p: int, q: int, bits: int) -> tuple[int, int]:
    """Integers lo <= 2**bits * ln(p/q) <= hi with hi - lo <= 2, for p >= q >= 1.

    It writes p/q = 2**k * r with r in [1, 2), encloses ln r = 2 * atanh(x)
    with x = (p - q*2**k) / (p + q*2**k) < 1/3, and adds k times ln 2 = 2 *
    atanh(1/3). The series run GUARD_BITS plus the bits of k finer than
    ``bits``, where their widths add up to less than one unit of 2**-bits, so
    the lower end rounded down and the upper end rounded up differ by two
    units at most.
    """
    k = p.bit_length() - q.bit_length()
    if p < q << k:
        k -= 1
    q <<= k
    guard = GUARD_BITS + k.bit_length()
    lo, hi = _atanh_fixed(p - q, p + q, bits + guard)
    if k:
        two_lo, two_hi = _ln2_fixed(bits + guard)
        lo, hi = lo + k * two_lo, hi + k * two_hi
    return lo >> guard, -(-hi >> guard)


def _atanh_fixed(num: int, den: int, bits: int) -> tuple[int, int]:
    """Integers lo <= 2**bits * 2 * atanh(x) <= hi for x = num/den in [0, 1/3].

    Both series sum x**k / k over odd k, the lower one with x, x**2, each
    power and each quotient rounded down, the upper one with each rounded up.
    They stop once x**k / k is below 2**(GUARD_BITS - 4) units: the lower one
    drops only positive terms, and the upper one adds the tail bound
    sum_{j >= k} x**j / j <= x**k / (k * (1 - x**2)), rounded up. So hi - lo
    is at most that tail bound, below 2**(GUARD_BITS - 2), plus a few units
    of rounding per term.
    """
    lo_x = (num << bits) // den
    hi_x = -(-(num << bits) // den)
    lo_x2 = lo_x * lo_x >> bits
    hi_x2 = -(-hi_x * hi_x >> bits)
    lo = hi = 0
    lo_t, hi_t, k = lo_x, hi_x, 1
    while hi_t > k << (GUARD_BITS - 4):
        lo += lo_t // k
        hi -= -hi_t // k
        lo_t = lo_t * lo_x2 >> bits
        hi_t = -(-hi_t * hi_x2 >> bits)
        k += 2
    hi -= -(hi_t << bits) // (k * ((1 << bits) - hi_x2))
    return 2 * lo, 2 * hi


@functools.cache
def _ln2_fixed(bits: int) -> tuple[int, int]:
    return _atanh_fixed(1, 3, bits)


def fraction_to_decimal(value: Fraction | int) -> str:
    """Plain decimal rendering with DECIMAL_DIGITS digits after the point. A
    value whose whole part has more digits than Python writes out raises InputError."""
    if not isinstance(value, Fraction):
        value = Fraction(check_int("value", value))
    sign = "-" if value < 0 else ""
    scaled = abs(value.numerator) * 10**DECIMAL_DIGITS // value.denominator
    whole, frac = divmod(scaled, 10**DECIMAL_DIGITS)
    try:
        return f"{sign}{whole}.{str(frac).zfill(DECIMAL_DIGITS)}"
    except ValueError as exc:  # whole is past Python's digit limit for str
        raise InputError(f"value has too many digits to write in decimal: {short_repr(value)}") from exc


_BLOCKS: dict[tuple[int, int], Fraction] = {}  # (a, b) -> sum of an aligned run inside [1, 4 * MAX_N]


def _reciprocal_range_sum(a: int, b: int) -> Fraction:
    """sum_{j=a}^{b} 1/j in lowest terms, by binary splitting.

    A window of at most LEAF_TERMS terms is summed directly over the product
    of its terms and reduced, a gcd of a few hundred bits. A longer one splits
    in two parts whose sums are added with ``+``: Fraction addition divides
    both denominators by their gcd before it multiplies, and reduces the new
    numerator only by that gcd's factors (Henrici's rule), so each sum stays
    in lowest terms and no gcd runs over the full-size numerator and
    denominator. A sum in lowest terms is unique, so it does not depend on
    where the window splits. A window that crosses a multiple of BLOCK_TERMS
    splits at the multiple with the most trailing zeros in block units, and
    any other at its middle. No split then falls strictly inside an aligned
    run [k * s, (k + 1) * s - 1] with s = BLOCK_TERMS * 2**i, so each such run
    that a window spans is a node of its own, and the sum of each one inside
    [1, 4 * MAX_N], which holds every rank sum's window, is kept in
    ``_BLOCKS`` on first use; a later window reads its largest runs there and
    sums only its two partial ends.
    """
    if b - a < LEAF_TERMS:  # an empty window gives 0
        terms = range(a, b + 1)
        P = prod(terms)
        return Fraction(sum(map(P.__floordiv__, terms)), P)
    run = b + 1 - a
    node = 0 < a and b <= 4 * MAX_N and run % BLOCK_TERMS == 0 and a % run == 0 and run & (run - 1) == 0
    if node and (a, b) in _BLOCKS:
        return _BLOCKS[a, b]
    mid = (a + b) // 2
    first, last = a // BLOCK_TERMS + 1, b // BLOCK_TERMS  # the multiples in (a, b], in blocks
    if first <= last:  # the one with the most trailing zeros
        mid = (last & -(1 << ((first - 1 ^ last).bit_length() - 1))) * BLOCK_TERMS - 1
    total = _reciprocal_range_sum(a, mid) + _reciprocal_range_sum(mid + 1, b)
    if node:
        _BLOCKS[a, b] = total
    return total


# ---------------------------------------------------------------------------
# Rotation distribution


@dataclass(frozen=True)
class AllocationDistribution:
    """Uniform distribution over the n cyclic-rotation runs."""

    support: tuple[tuple[PriorityRanking, Allocation], ...]
    ex_ante: tuple[Fraction, ...]
    ex_post_min: tuple[Fraction, ...]


def cyclic_rotation_distribution(
    inst: Instance, thresholds: ThresholdList
) -> AllocationDistribution:
    """Run the allocator once per cyclic shift of the ranking.

    Every agent holds each rank exactly once across the n runs, so her exact
    expected value is the plain average of her n bundle values. Each value is
    summed as an int count of ``1/L`` over the agent's own L, so each average
    is one ``Fraction``.
    """
    n = check_int("n", inst.num_agents, 1)
    support, rows = [], []
    for shift in range(n):
        ranking = PriorityRanking.rotation(n, shift)
        run = run_rbf_truthful(inst, thresholds, ranking)
        support.append((ranking, run.allocation))
        rows.append([check.value for check in run.report])
    ex_ante, ex_post_min = [], []
    for values, (_, scale) in zip(zip(*rows), inst.scaled):  # agent i's bundle value in each run
        counts = [v.numerator * (scale // v.denominator) for v in values]
        ex_ante.append(Fraction(sum(counts), n * scale))
        ex_post_min.append(Fraction(min(counts), scale))
    return AllocationDistribution(tuple(support), tuple(ex_ante), tuple(ex_post_min))


def sample_allocation(
    dist: AllocationDistribution, seed: int
) -> tuple[PriorityRanking, Allocation]:
    """Draw one rotation uniformly, reproducibly from a 64-bit seed."""
    check_int("seed", seed, 0, 2**64 - 1)
    if not dist.support:
        raise InputError("cannot sample from a distribution with an empty support")
    index = random.Random(seed).randrange(len(dist.support))
    return dist.support[index]


# ---------------------------------------------------------------------------
# Certified average bounds


@dataclass(frozen=True)
class _AverageBound:
    """The average (1/n) sum_{i=1}^{n} f(i), bounded for n >= least_n by the
    constant coeff * ln(lp/lq) + rational + 1/(r*n), with ``log`` = (coeff, lp, lq).

    ``split(n)`` is (p, q, c, a, b) with sum_i f(i) = p/q + c * sum_{j=a}^{b} 1/j.
    """

    name: str
    least_n: int
    split: Callable[[int], tuple[int, int, int, int, int]]
    log: tuple[int, int, int]
    rational: tuple[int, int]
    r: int
    floor: bool  # the average is at least the constant; else at most

    @functools.cached_property
    def _terms(self) -> tuple[int, int, int]:
        coeff, lp, lq = self.log
        num, den = self.rational
        end = _ln_fixed(lp, lq, LN_BITS)[self.floor]  # the log's conservative end: the upper one for a floor
        return (coeff * end * den + (num << LN_BITS)) * self.r, den << LN_BITS, den * self.r << LN_BITS

    def target(self, n: int) -> tuple[int, int]:
        """n times the constant at n, as (numerator, denominator)."""
        slope, one, den = self._terms
        return n * slope + one, den


def _gamma_split(n: int) -> tuple[int, int, int, int, int]:
    # Ranks 1..K take the harmonic branch 2n/(2n+i-1), the rest the floor
    # (9n+1)/(12n): 2n/(2n+i-1) >= floor  <=>  2n+i-1 <= 24n^2/(9n+1).
    K = min(n, max(0, (24 * n * n) // (9 * n + 1) - 2 * n + 1))
    return (n - K) * (9 * n + 1), 12 * n, 2 * n, 2 * n, 2 * n + K - 1


def _hard2_split(n: int) -> tuple[int, int, int, int, int]:
    # Ranks 1..i1 take the linear branch 1 - (i-1)/(3n), ranks i1+1..i2 sit
    # on the 5/6 plateau, and the rest take the harmonic branch 3n/(3n+i-2).
    i1 = n // 2 + 1
    i2 = min((3 * n + 10) // 5, n)
    return 6 * n * i1 - (i1 - 1) * i1 + 5 * n * (i2 - i1), 6 * n, 3 * n, 3 * n + i2 - 1, 4 * n - 2


_GAMMA = _AverageBound("average threshold floor", 1, _gamma_split, (2, 4, 3), (1, 4), 36, floor=True)
_HARD1 = _AverageBound(  # ranks 1 and 2 worth 1, rank i >= 3 capped at 3n/(3n+i-2)
    "hard1 ceiling", 2, lambda n: (2, 1, 3 * n, 3 * n + 1, 4 * n - 2), (3, 4, 3), (0, 1), 2, floor=False)
_HARD2 = _AverageBound("hard2 ceiling", 1, _hard2_split, (3, 10, 9), (13, 24), 3, floor=False)


def _margin(bound: _AverageBound, n: int, num: int, den: int) -> int:
    """Positive when the rank sum num/den is strictly on the bound's safe side of ``target(n)``, 0 at a tie."""
    top, bottom = bound.target(n)
    margin = num * bottom - top * den
    return margin if bound.floor else -margin


def _rank_sum(bound: _AverageBound, n: int) -> Fraction:
    """sum_{i=1}^{n} f(i) in lowest terms: p/q + c * sum_{j=a}^{b} 1/j, its harmonic
    window summed by binary splitting. The product by c and the addition of p/q each
    take a gcd of c or q with the window's denominator, not of the full-size pair."""
    p, q, c, a, b = bound.split(n)
    return Fraction(p, q) + c * _reciprocal_range_sum(a, b)


def _certify(bound: _AverageBound, n: int) -> Fraction:
    """The exact average at n in lowest terms, certified by ``_margin``.

    ``_margin`` compares the rank sum's own numerator and denominator, and the
    division by n takes a gcd with n only, so no gcd runs over the full-size pair.
    Its cost grows with n. The closed forms call it, and so do sweeps for each n their
    window enclosure cannot prove; it is the only source of ``GuaranteeViolation``.
    """
    check_int("n", n, bound.least_n, MAX_N)
    total = _rank_sum(bound, n)
    if _margin(bound, n, total.numerator, total.denominator) < 0:
        raise GuaranteeViolation(f"{bound.name} fails at n={n}")
    return total / n


def _closed_form(bound: _AverageBound, n: int) -> tuple[Fraction, str]:
    return _certify(bound, n), fraction_to_decimal(Fraction(*bound.target(n)) / n)


def gamma_lower_bound(n: int) -> tuple[Fraction, str]:
    """The exact average threshold and its certified transcendental floor.

    Returns (exact average, decimal string of the floor's upper enclosure)
    and asserts average >= 2*ln(4/3) + 1/4 + 1/(36n) rigorously.
    """
    return _closed_form(_GAMMA, n)


def hard1_upper_bound(n: int) -> tuple[Fraction, str]:
    """Exact value of (1/n)(2 + sum_{i=3}^n 3n/(3n+i-2)) and its ceiling.

    Asserts the average is at most 3*ln(4/3) + 1/(2n) rigorously.
    """
    return _closed_form(_HARD1, n)


def hard2_upper_bound(n: int) -> tuple[Fraction, str]:
    """Exact oblivious-family average and its certified ceiling.

    Asserts the average is at most 13/24 + 3*ln(10/9) + 1/(3n) rigorously.
    """
    return _closed_form(_HARD2, n)


def _fixed_sum(a: int, b: int) -> int:
    """sum_{j=a}^{b} 2**WINDOW_BITS // j; 0 when a > b."""
    return sum((1 << WINDOW_BITS) // j for j in range(a, b + 1))


# H_n = ln n + gamma + r(n) + R(n) with r(n) = 1/(2n) - sum_{k=1}^{5} B_2k / (2k n**2k)
# = _em_numerator(n) / (55440 n**10), where 55440 is the lcm of 2 and the five
# denominators 12, 120, 252, 240, 132, and 0 < R(n) < |B_12| / (12 n**12) = 691 / (32760 n**12).


def _em_numerator(n: int) -> int:
    return 27720 * n**9 - 4620 * n**8 + 462 * n**6 - 220 * n**4 + 231 * n**2 - 420


def _em_remainder(m: int) -> int:
    """691 / (32760 m**12) rounded up to a unit of 2**-WINDOW_BITS."""
    return -((-691 << WINDOW_BITS) // (32760 * m**12))


def _harmonic_enclosure(a: int, b: int) -> tuple[int, int]:
    """Integers lo <= 2**WINDOW_BITS * sum_{j=a}^{b} 1/j <= hi for 2 <= a <= b, by Euler-Maclaurin.

    With m = a - 1 the sum is H_b - H_m = ln(b/m) + r(b) - r(m) + R(b) - R(m).
    The remainder of the asymptotic series of psi is bounded by the first
    omitted term and has its sign (DLMF 5.11(ii)), so R(b) and R(m) both lie
    in (0, 691 / (32760 m**12)) and their difference within plus or minus that
    bound. The log comes from ``_ln_fixed``, r(b) - r(m) is one exact
    quotient, floored, so hi - lo is at most 3 + 2 * ``_em_remainder(m)``.
    """
    m = a - 1
    lo, hi = _ln_fixed(b, m, WINDOW_BITS)
    num = _em_numerator(b) * m**10 - _em_numerator(m) * b**10
    r = (num << WINDOW_BITS) // (55440 * (b * m) ** 10)
    remainder = _em_remainder(m)
    return lo + r - remainder, hi + r + 1 + remainder


def _sweep(lo: int, hi: int, *bounds: _AverageBound) -> None:
    """Certify each bound, in the given order, at every n in [lo, hi] from its least_n.

    Each bound keeps its window (a, b) and integers W, S with 2**WINDOW_BITS
    * sum_{j=a}^{b} 1/j in [W, W + S]. By Euler-Maclaurin that sum is
    ln(b/(a-1)) plus an exact rational part plus R(b) - R(a-1), where the
    remainder R(n) of psi's asymptotic series has the sign of its first
    omitted term and is smaller, 0 < R(n) < 691 / (32760 n**12). Once that
    bound at a - 1 is at most one unit, which takes a - 1 >= 1179, the first
    window starts from this enclosure (``_harmonic_enclosure``), at the cost
    of one log; below that it starts from W = _fixed_sum(a, b), S = b - a + 1.
    Each move to the next n's window adds 2**WINDOW_BITS // j for a term j
    that enters and subtracts it for one that leaves; each such floor is
    below its term by less than one unit, so W also drops one unit for each
    term that leaves, and S widens by one unit for each term that moves. An
    empty window sums to 0 exactly and keeps no state. An n whose rank sum,
    taken at the conservative end of [W, W + S], has no positive ``_margin``
    (undecided, a tie or a failure) goes to ``_certify``.
    """
    check_int("n", hi, most=MAX_N)
    check_int("n", lo)
    if lo > hi:
        return
    check_int("n", lo, min(bound.least_n for bound in bounds))
    windows: list[tuple[int, int, int, int] | None] = [None] * len(bounds)
    for n in range(lo, hi + 1):
        for k, bound in enumerate(bounds):
            if n < bound.least_n:
                continue
            p, q, c, a, b = bound.split(n)
            if a > b:
                W = S = 0
            elif windows[k] is None and _em_remainder(a - 1) == 1:
                W, top = _harmonic_enclosure(a, b)
                S = top - W
            elif windows[k] is None:
                W, S = _fixed_sum(a, b), b - a + 1
            else:
                a0, b0, W, S = windows[k]
                W += _fixed_sum(b0 + 1, b) + _fixed_sum(a, a0 - 1)
                W -= _fixed_sum(b + 1, b0) + _fixed_sum(a0, a - 1) + max(0, b0 - b) + max(0, a - a0)
                S += abs(b - b0) + abs(a - a0)
            windows[k] = (a, b, W, S) if a <= b else None
            s = W if bound.floor else W + S
            if _margin(bound, n, (p << WINDOW_BITS) + c * s * q, q << WINDOW_BITS) <= 0:
                _certify(bound, n)


def verify_gamma_bound_range(lo: int, hi: int) -> None:
    """Assert the gamma floor for every n in [lo, hi]."""
    _sweep(lo, hi, _GAMMA)


def verify_hard_bound_range(lo: int, hi: int) -> None:
    """Assert both hard-family ceilings for every n in [lo, hi], hard1 from n = 2;
    at each n, hard2 is decided first."""
    _sweep(lo, hi, _HARD2, _HARD1)


# ---------------------------------------------------------------------------
# Integral sandwich checks


def _sandwich(bound: _AverageBound, n: int, last: Fraction, exact: Fraction, coeff: int, arg: Fraction) -> bool:
    """Certify f(b) + I <= sum f(i) <= f(a) + I, with I = exact + coeff * ln(arg), coeff >= 0
    and arg >= 1, for a bound record's curve f(a) = 1, ..., f(b) = ``last`` at n, whose sum is
    the record's rank sum, less rank 1 (worth 1) for hard1, whose curve starts at rank 2.

    Each curve is non-increasing: gamma's max(2n/(2n+x), (9n+1)/(12n)) and hard2's
    min(3n/(3n+x-1), max(5/6, 1 - x/(3n))) are maxima and minima of falling or constant
    branches, and hard1's 3n/(3n+x) falls. Each side takes the log enclosure's conservative
    end, so True is a proof; with coeff = 0 or arg = 1 the comparison is exact and inclusive."""
    total = _rank_sum(bound, n) - (bound is _HARD1)  # hard1's curve starts at rank 2
    lo, hi = ln_enclosure(arg.numerator, arg.denominator)
    return last + exact + coeff * hi <= total <= 1 + exact + coeff * lo


def integral_check_gamma(n: int) -> bool:
    """Sandwich check for the average-threshold curve on [0, n-1]."""
    check_int("n", n, 1, MAX_N)
    last = max(Fraction(2 * n, 3 * n - 1), Fraction(9 * n + 1, 12 * n))  # tau_n
    # Past the branch switch point the curve sits on its floor, the last threshold.
    beta = min(Fraction(2 * n * (3 * n - 1), 9 * n + 1), Fraction(n - 1))
    return _sandwich(_GAMMA, n, last, last * (n - 1 - beta), 2 * n, (2 * n + beta) / (2 * n))


def integral_check_hard1(n: int) -> bool:
    """Sandwich check for 3n/(3n+x) on [0, n-2]."""
    check_int("n", n, 2, MAX_N)
    return _sandwich(_HARD1, n, Fraction(3 * n, 4 * n - 2), Fraction(0), 3 * n, Fraction(4 * n - 2, 3 * n))


def integral_check_hard2(n: int) -> bool:
    """Sandwich check for the oblivious-family curve on [0, n-1]."""
    check_int("n", n, 1, MAX_N)
    last = min(Fraction(3 * n, 4 * n - 2), max(Fraction(5, 6), 1 - Fraction(n - 1, 3 * n)))
    end = Fraction(n - 1)
    s1 = min(Fraction(n, 2), end)
    s2 = min(Fraction(3 * n, 5) + 1, end)
    exact = s1 - s1 * s1 / (6 * n) + Fraction(5, 6) * (s2 - s1)
    return _sandwich(_HARD2, n, last, exact, 3 * n, (3 * n + end - 1) / (3 * n + s2 - 1))
