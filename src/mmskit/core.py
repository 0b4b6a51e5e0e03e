"""Exact-arithmetic domain model for fair division of indivisible goods.

Agents and goods are 0-indexed throughout the package. An instance holds
each agent's values as ints over one denominator, and every value it
reports is a ``fractions.Fraction``; floating point never enters any
allocation decision, so boundary comparisons (``value >= threshold``)
are exact.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import filterfalse
from math import gcd, lcm
from operator import ge, itemgetter
from typing import Callable, Iterable, Sequence, Union

from .errors import InputError

RationalLike = Union[Fraction, int, str]

# Bounds on a rational literal, so that a few bytes of input cannot ask for a
# huge integer: "1e1000000000" would be a billion digits long.
LITERAL_MAX_CHARS = 1000
LITERAL_MAX_EXPONENT = 1000
_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)", re.IGNORECASE)

# Cap on n wherever a call builds something of size n from n alone: a
# threshold list, a ranking, a closed-form bound, an integral check and a
# sweep's hi. Each costs time and memory linear in n or more, so a short
# argument such as n = 10**30 would never return.
MAX_N = 10_000

# Cap on the repr of a value that an error message echoes, so that one bad
# input cannot make an arbitrarily long error line.
REPR_MAX_CHARS = 100


def short_text(text: str) -> str:
    """``text``, cut to ``REPR_MAX_CHARS`` characters and then marked with its
    full length: the one cutting rule for input echoed in an error message."""
    if len(text) <= REPR_MAX_CHARS:
        return text
    return f"{text[:REPR_MAX_CHARS]}... ({len(text)} characters)"


def short_repr(value: object, show: Callable[[object], str] = repr) -> str:
    """``short_text(show(value))``: how every InputError message echoes a
    value. A value that Python will not write out, an int past its digit
    limit for ``str`` or a value holding one, is shown by its size, and one
    nested past the recursion limit by its type."""
    try:
        return short_text(show(value))
    except RecursionError:
        return f"<{type(value).__name__} too deeply nested to show>"
    except ValueError:
        if isinstance(value, (int, Fraction)):
            sign = "negative " if value < 0 else ""
            bits = f"{value.numerator.bit_length()}"
            if value.denominator != 1:
                bits += f"/{value.denominator.bit_length()}"
            return f"<{sign}{type(value).__name__} of {bits} bits>"
        return f"<{type(value).__name__} too long to show>"


def as_fraction(x: RationalLike) -> Fraction:
    """Convert an int, a "p/q" string, or a Fraction to an exact Fraction.

    Floats are rejected on purpose: they would silently break exactness.
    A string may hold at most ``LITERAL_MAX_CHARS`` characters and an
    exponent of at most ``LITERAL_MAX_EXPONENT`` in absolute value.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        if len(x) > LITERAL_MAX_CHARS:
            raise InputError(f"rational literal longer than {LITERAL_MAX_CHARS} characters")
        # Fast path for "p" and "p/q" in ASCII digits with q non-zero; isdigit()
        # alone would also accept digits such as "²" that int() rejects.
        num, slash, den = x.partition("/")
        if num.isascii() and num.isdigit():
            if not slash:
                return Fraction(int(num))
            if den.isascii() and den.isdigit() and den.strip("0"):
                return Fraction(int(num), int(den))
        if "e" in x or "E" in x:  # skip the regex on the common "p/q" and integer forms
            exponent = _EXPONENT.search(x)
            if exponent and abs(int(exponent.group(1))) > LITERAL_MAX_EXPONENT:
                raise InputError(f"rational literal exponent beyond +-{LITERAL_MAX_EXPONENT}: {short_repr(x)}")
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"not a valid rational literal: {short_repr(x)}") from exc
    raise InputError(f"not a rational: {short_repr(x)} (floats are not accepted)")


def check_int(name: str, value: object, least: int | None = None, most: int | None = None) -> int:
    """The one check of an integer argument: an int, not a bool, within
    [least, most] where given. Returns ``value``; raises InputError naming ``name``."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise InputError(f"{name} must be an integer, got {short_repr(value)}")
    if least is not None and value < least:
        raise InputError(f"{name} must be >= {least}, got {short_repr(value)}")
    if most is not None and value > most:
        raise InputError(f"{name} must be <= {most}, got {short_repr(value)}")
    return value


def check_sequence(name: str, value: object, of: str) -> Sequence:
    """The one check of a parameter that takes plain data as a sequence: any
    iterable but a string or bytes. Returns ``value``, as a tuple unless it is
    a list or tuple; raises InputError naming ``name``, a sequence ``of`` what."""
    if isinstance(value, (str, bytes, bytearray)):
        raise InputError(f"{name} must be a sequence of {of}, not a string: {short_repr(value)}")
    if not hasattr(value, "__iter__"):
        raise InputError(f"{name} must be a sequence of {of}, got {short_repr(value)}")
    return value if value.__class__ in (list, tuple) else tuple(value)


def scale_row(pairs: Sequence[tuple[int, int]]) -> tuple[tuple[int, ...], int]:
    """A row of values p/q, given as ``(p, q)`` pairs with q > 0, in the
    integer form ``(ints, L)`` that ``Instance.scaled`` holds: L is the lcm
    of the values' reduced denominators and ``ints[g] == p * L / q``."""
    scale = lcm(*set(map(itemgetter(1), pairs)))
    ints = [p * (scale // q) for p, q in pairs]
    common = gcd(scale, *ints)  # 1 unless some p/q is not in lowest terms
    if common > 1:
        return tuple([v // common for v in ints]), scale // common
    return tuple(ints), scale


def _unchecked(cls: type, **fields: object):
    """A frozen dataclass ``cls`` holding ``fields`` as given, built without its
    ``__post_init__``: the path for fields that the caller built from checked
    input, so that they already meet every check."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


@dataclass(frozen=True)
class Instance:
    """A fair division instance: n agents, m goods, additive valuations.

    The exact value kernel: ``scaled[i]`` is agent i's row as ``(ints, L)``,
    ``num_goods`` non-negative ints and the lcm L of the reduced denominators
    of her values, so equal rows have equal forms. Her value for good g is
    ``Fraction(ints[g], L)``. Sums and comparisons within one row run on these
    ints: a bundle is worth ``sum(ints[g]) / L``, and at least 1 exactly when
    that sum is at least L. MMS scales linearly, so the share oracle searches
    the int row and divides its optimum by L.
    """

    scaled: tuple[tuple[tuple[int, ...], int], ...]
    num_goods: int

    def __post_init__(self):
        check_int("num_goods", self.num_goods, 0)
        if not isinstance(self.scaled, tuple):
            raise InputError(f"scaled must be a tuple of (ints, L) pairs, got {short_repr(self.scaled)}")
        for i, row in enumerate(self.scaled):
            if not (isinstance(row, tuple) and len(row) == 2 and isinstance(row[0], tuple)):
                raise InputError(f"scaled[{i}] must be a pair (ints, L) with ints a tuple, got {short_repr(row)}")
            ints, scale = row
            if len(ints) != self.num_goods:
                raise InputError(f"agent {i} has {len(ints)} values, expected {short_repr(self.num_goods)}")
            check_int(f"scaled[{i}]'s L", scale, 1)
            if not {*map(type, ints)} <= {int} or min(ints, default=0) < 0:
                g, v = next((g, v) for g, v in enumerate(ints) if v.__class__ is not int or v < 0)
                if v.__class__ is not int:
                    raise InputError(f"scaled[{i}] value {g} is not an int: {short_repr(v)}")
                raise InputError(f"valuations[{i}][{g}] is negative: {short_repr(Fraction(v, scale), str)}")
            if gcd(scale, *ints) != 1:
                raise InputError(f"scaled[{i}] is not in lowest terms: L = {short_repr(scale)}")

    @staticmethod
    def from_rows(rows: Sequence[Sequence[RationalLike]], num_goods: int | None = None) -> "Instance":
        """Build an Instance from rows of ints / "p/q" strings / Fractions.

        A row of only ``str`` and ``int`` cells is read in one pass through a
        memo that holds each distinct literal once per call. Its new literals
        are parsed first, in row order, so the first bad cell raises, as it
        would read cell by cell, and each literal's sign is checked there,
        once. The row's L is the lcm of its distinct denominators and its
        cells map through a literal -> int table. Any other row is read cell
        by cell without the memo, so that ``True`` never meets the memo's ``1``.

        When every row went through the memo, no literal is negative and every
        row has ``num_goods`` cells, the rows meet every check of ``Instance``
        (reduced pairs over their lcm are in lowest terms), so the instance is
        built without re-checking them. Otherwise ``Instance(...)`` checks it
        and raises its own messages.
        """
        parsed: dict[str | int, tuple[int, int]] = {}
        memoised = {str, int}
        trusted = True

        scaled = []
        for i, row in enumerate(check_sequence("rows", rows, "rows")):
            if isinstance(row, (str, bytes, bytearray)):
                raise InputError(f"row {i} is a string, not a sequence of values: {short_repr(row)}")
            if not hasattr(row, "__iter__"):
                raise InputError(f"row {i} is not a sequence of values: {short_repr(row)}")
            row = row if row.__class__ in (list, tuple) else [*row]  # read more than once below
            if {*map(type, row)} <= memoised:
                literals = dict.fromkeys(row)
                for v in filterfalse(parsed.__contains__, literals):
                    parsed[v] = pair = as_fraction(v).as_integer_ratio()
                    if pair[0] < 0:
                        trusted = False
                pairs = [*map(parsed.__getitem__, literals)]
                scale = lcm(*{q for _, q in pairs})
                to_int = {v: p * (scale // q) for v, (p, q) in zip(literals, pairs)}
                scaled.append((tuple(map(to_int.__getitem__, row)), scale))
            else:
                trusted = False
                scaled.append(scale_row([as_fraction(v).as_integer_ratio() for v in row]))
        if num_goods is None:
            if not scaled:
                raise InputError("num_goods is required for an instance with no agents")
            num_goods = len(scaled[0][0])
        if trusted and num_goods.__class__ is int and num_goods >= 0:
            if all(len(ints) == num_goods for ints, _ in scaled):
                return _unchecked(Instance, scaled=tuple(scaled), num_goods=num_goods)
        return Instance(tuple(scaled), num_goods)

    @property
    def num_agents(self) -> int:
        return len(self.scaled)

    @cached_property
    def valuations(self) -> tuple[tuple[Fraction, ...], ...]:
        """Each value as a Fraction, ``Fraction(ints[g], L)``: a view of ``scaled`` for output."""
        return tuple(tuple(Fraction(v, scale) for v in ints) for ints, scale in self.scaled)

    @cached_property
    def totals(self) -> tuple[Fraction, ...]:
        """Each agent's exact value for all goods, computed once per instance."""
        return tuple(Fraction(sum(ints), scale) for ints, scale in self.scaled)

    @cached_property
    def ordered(self) -> bool:
        """True when every agent's values are non-increasing in the good index."""
        return all(all(map(ge, ints, ints[1:])) for ints, _ in self.scaled)

    def check_agent(self, agent: int) -> None:
        check_int("agent", agent, 0, self.num_agents - 1)

    def check_goods(self, goods: Iterable[int]) -> frozenset[int]:
        """``goods`` as a frozenset, each member checked as ``check_int("good", g, 0, m - 1)``."""
        return _as_index_set(goods, self.num_goods - 1)

    def check_allocation(self, alloc: "Allocation") -> None:
        """Raise InputError unless ``alloc`` has n bundles and names only goods of this instance."""
        if alloc.num_agents != self.num_agents:
            raise InputError(f"allocation has {alloc.num_agents} bundles, instance {self.num_agents} agents")
        for goods in (*alloc.bundles, alloc.unallocated):
            self.check_goods(goods)


def _as_index_set(goods: Iterable[int], most: int | None = None) -> frozenset[int]:
    # Each member must pass check_int("good", g, 0, most), tested inline: every bag the
    # threshold allocator builds comes here. A list is checked as given; its set would
    # drop True next to 1.
    try:
        s = frozenset(goods)
    except TypeError as exc:
        raise InputError(f"not a collection of good indices: {short_repr(goods)}") from exc
    members = goods if goods.__class__ in (list, tuple) else s
    if most is None:
        for g in members:
            if g.__class__ is not int or g < 0:
                check_int("good", g, 0)
    else:
        for g in members:
            if g.__class__ is not int or not 0 <= g <= most:
                check_int("good", g, 0, most)
    return s


@dataclass(frozen=True)
class Allocation:
    """Disjoint bundles, one per agent, plus the set of unallocated goods.

    Allocations may be partial: algorithms that run out of goods return
    whatever they assigned, with the rest recorded in ``unallocated``.
    """

    bundles: tuple[frozenset[int], ...]
    unallocated: frozenset[int] = frozenset()

    def __post_init__(self):
        bundles = check_sequence("bundles", self.bundles, "good collections")
        object.__setattr__(self, "bundles", tuple(_as_index_set(b) for b in bundles))
        object.__setattr__(self, "unallocated", _as_index_set(self.unallocated))
        seen: set[int] = set()
        for i, b in enumerate(self.bundles):
            if seen & b:
                raise InputError(f"bundle {i} overlaps an earlier bundle: {short_repr(sorted(seen & b))}")
            seen |= b
        if seen & self.unallocated:
            raise InputError(f"unallocated overlaps a bundle: {short_repr(sorted(seen & self.unallocated))}")

    @property
    def num_agents(self) -> int:
        return len(self.bundles)


@dataclass(frozen=True)
class Partition:
    """A partition of a ground set of goods into d (possibly empty) parts."""

    parts: tuple[frozenset[int], ...]

    def __post_init__(self):
        parts = check_sequence("parts", self.parts, "good collections")
        object.__setattr__(self, "parts", tuple(_as_index_set(p) for p in parts))
        seen: set[int] = set()
        for i, p in enumerate(self.parts):
            if seen & p:
                raise InputError(f"partition part {i} overlaps an earlier part")
            seen |= p

    @property
    def d(self) -> int:
        return len(self.parts)

    @property
    def ground_set(self) -> frozenset[int]:
        out: set[int] = set()
        for p in self.parts:
            out |= p
        return frozenset(out)


@dataclass(frozen=True)
class ThresholdList:
    """Per-rank targets tau_1 >= ... >= tau_n, each within [0, 1].

    ``taus[r]`` is the target for the agent holding rank r (0-indexed:
    rank 0 is the most important agent).
    """

    taus: tuple[Fraction, ...]

    def __post_init__(self):
        taus = check_sequence("taus", self.taus, "rationals")
        object.__setattr__(self, "taus", tuple(as_fraction(t) for t in taus))
        prev = Fraction(1)
        for r, t in enumerate(self.taus):
            if t < 0 or t > 1:
                raise InputError(f"threshold at rank {r} outside [0, 1]: {short_repr(t, str)}")
            if t > prev:
                raise InputError(f"thresholds increase at rank {r}: {short_repr(t, str)} > {short_repr(prev, str)}")
            prev = t

    def __len__(self) -> int:
        return len(self.taus)

    @staticmethod
    def constant(n: int, tau: RationalLike) -> "ThresholdList":
        return ThresholdList((as_fraction(tau),) * check_int("n", n, 0, MAX_N))


@dataclass(frozen=True)
class PriorityRanking:
    """A bijection agent -> rank. Rank 0 wins all ties for a liked bundle."""

    rank_of: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "rank_of", check_sequence("rank_of", self.rank_of, "ranks"))
        n = len(self.rank_of)
        for rank in self.rank_of:
            check_int("rank", rank, 0, n - 1)
        if sorted(self.rank_of) != list(range(n)):
            raise InputError(f"rank_of is not a permutation of 0..{n - 1}: {short_repr(self.rank_of)}")

    @staticmethod
    def identity(n: int) -> "PriorityRanking":
        return PriorityRanking(tuple(range(check_int("n", n, 0, MAX_N))))

    @staticmethod
    def rotation(n: int, shift: int) -> "PriorityRanking":
        """Cyclic ranking: agent i gets rank (i + shift) mod n."""
        check_int("n", n, 0, MAX_N)
        check_int("shift", shift)
        return PriorityRanking(tuple((i + shift) % n for i in range(n)))

    @property
    def num_agents(self) -> int:
        return len(self.rank_of)

    def agents_by_rank(self) -> tuple[int, ...]:
        """Agents listed from rank 0 (most important) to rank n-1."""
        inv = [0] * len(self.rank_of)
        for agent, rank in enumerate(self.rank_of):
            inv[rank] = agent
        return tuple(inv)


def check_ranked(n: int, thresholds: ThresholdList, ranking: PriorityRanking | None = None) -> PriorityRanking:
    """Check that ``thresholds`` and ``ranking`` each cover n agents; returns the ranking, identity for None."""
    if len(thresholds) != n:
        raise InputError(f"expected {n} thresholds, got {len(thresholds)}")
    ranking = PriorityRanking.identity(n) if ranking is None else ranking
    if ranking.num_agents != n:
        raise InputError(f"ranking covers {ranking.num_agents} agents, expected {n}")
    return ranking


def bundle_value(inst: Instance, agent: int, bundle: Iterable[int]) -> Fraction:
    """Exact additive value of a bundle: the sum of the agent's good values,
    added as the ints of ``Instance.scaled``."""
    inst.check_agent(agent)
    ints, scale = inst.scaled[agent]
    total = 0
    for g in inst.check_goods(bundle):
        total += ints[g]
    return Fraction(total, scale)


@dataclass(frozen=True)
class ReductionEvent:
    """One removal of (bundle, agent) during phase 1 of the threshold allocator."""

    type: int  # 1..4, the order-statistic shape of the bundle
    bundle: frozenset[int]
    agent: int
    agents_before: int
    goods_before: int


@dataclass(frozen=True)
class BagEvent:
    kind: str  # "assign" | "fill" | "leftover"
    bag: int
    agent: int | None = None
    good: int | None = None


@dataclass(frozen=True)
class Transcript:
    """Ordered log of one run of either bag filler, sufficient to re-check its
    structure; the four properties are worked out from it, not reported.
    ``run_ordinal`` logs no reductions, so its phase 2 holds every agent and good.
    """

    num_agents: int
    num_goods: int
    reductions: tuple[ReductionEvent, ...]
    bag_events: tuple[BagEvent, ...]
    initial_bags: tuple[frozenset[int], ...]

    @cached_property
    def phase2_agents(self) -> frozenset[int]:
        """The agents no reduction served."""
        return frozenset(range(self.num_agents)).difference(e.agent for e in self.reductions)

    @cached_property
    def phase2_goods(self) -> frozenset[int]:
        """The goods no reduction took."""
        return frozenset(range(self.num_goods)).difference(*(e.bundle for e in self.reductions))

    @cached_property
    def satisfied(self) -> tuple[bool, ...]:
        """Per agent, whether a reduction or an ``"assign"`` event served her."""
        served = {e.agent for e in self.reductions}
        served.update(e.agent for e in self.bag_events if e.kind == "assign")
        return tuple(i in served for i in range(self.num_agents))

    @cached_property
    def ran_out_of_goods(self) -> bool:
        """Whether the goods ran out: true when some ``"leftover"`` event exists."""
        return any(e.kind == "leftover" for e in self.bag_events)
