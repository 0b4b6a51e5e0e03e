"""Domain model: exact values, allocation validity, threshold semantics."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from mmskit import (
    Allocation,
    Instance,
    InputError,
    Partition,
    PriorityRanking,
    ThresholdList,
    as_fraction,
    bundle_value,
    check_t_mms,
)
from mmskit import core
from mmskit.cli import instance_from_json
from mmskit.core import LITERAL_MAX_CHARS, LITERAL_MAX_EXPONENT, REPR_MAX_CHARS, check_int, scale_row, short_repr, short_text
from mmskit.verify import check_targets

rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=10**6)


# ---------------------------------------------------------------------------
# Rationals


def test_as_fraction_accepts_ints_strings_fractions():
    assert as_fraction(3) == Fraction(3)
    assert as_fraction("5/6") == Fraction(5, 6)
    assert as_fraction(Fraction(1, 3)) == Fraction(1, 3)


def test_as_fraction_rejects_floats_and_garbage():
    with pytest.raises(InputError):
        as_fraction(0.5)
    with pytest.raises(InputError):
        as_fraction("not-a-number")
    with pytest.raises(InputError):
        as_fraction("1/0")


def test_as_fraction_bounds_literal_length_and_exponent():
    assert as_fraction("1e5") == 10**5
    assert as_fraction(f"1e-{LITERAL_MAX_EXPONENT}") == Fraction(1, 10**LITERAL_MAX_EXPONENT)
    for literal in (
        f"1e{LITERAL_MAX_EXPONENT + 1}",
        f"2.5E-{LITERAL_MAX_EXPONENT + 1}",
        f"1e+{LITERAL_MAX_EXPONENT + 1:_}",
        "7" * (LITERAL_MAX_CHARS + 1),
    ):
        with pytest.raises(InputError):
            as_fraction(literal)


def test_short_repr_cuts_a_long_repr_and_marks_its_length():
    assert REPR_MAX_CHARS == 100
    assert short_repr("ab") == "'ab'"
    assert short_repr("x" * 98) == repr("x" * 98)  # 100 characters with the quotes
    assert short_repr("x" * 99) == "'" + "x" * 99 + "... (101 characters)"
    assert short_repr([1] * 100_000) == "[" + "1, " * 33 + "... (300000 characters)"
    assert short_text("x" * 100) == "x" * 100  # the same rule on text that is not a repr
    assert short_text("x" * 101) == "x" * 100 + "... (101 characters)"


def test_short_repr_shows_a_value_python_will_not_write_out_by_its_size():
    # str and repr refuse an int of more than 4300 digits.
    assert short_repr(10**5000) == "<int of 16610 bits>"
    assert short_repr(-(10**5000)) == "<negative int of 16610 bits>"
    assert short_repr(Fraction(10**5000, 3), str) == "<Fraction of 16610/2 bits>"
    assert short_repr([10**5000]) == "<list too long to show>"
    assert short_repr(Fraction(-1, 2), str) == "-1/2"
    # check_int echoes through it: an int of 100 digits whole, a longer one cut.
    for value, echo in ((10**99, str(10**99)), (10**4000, "1" + "0" * 99 + "... (4001 characters)")):
        with pytest.raises(InputError) as info:
            check_int("x", value, 0, 5)
        assert str(info.value) == f"x must be <= 5, got {echo}"


@pytest.mark.parametrize(
    "build",
    [
        lambda: Allocation((range(100_000), range(100_000))),
        lambda: Allocation((range(100_000),), unallocated=range(100_000)),
        lambda: PriorityRanking((0,) * 100_000),
    ],
    ids=["bundle-overlap", "unallocated-overlap", "ranking"],
)
def test_a_message_listing_goods_or_ranks_is_cut(build):
    with pytest.raises(InputError) as exc:
        build()
    assert len(str(exc.value)) < 200 and str(exc.value).endswith(" characters)")


def _reference_outcome(s: str) -> tuple[str, object]:
    """What as_fraction(s) must give: the value of Fraction(s), or the error
    message of the bound that applies, or of a string Fraction rejects, which
    echoes the string through ``short_repr``."""
    if len(s) > LITERAL_MAX_CHARS:
        return "error", f"rational literal longer than {LITERAL_MAX_CHARS} characters"
    exponent = re.search(r"e([-+]?\d+(?:_\d+)*)", s, re.IGNORECASE)
    if exponent and abs(int(exponent.group(1))) > LITERAL_MAX_EXPONENT:
        return "error", f"rational literal exponent beyond +-{LITERAL_MAX_EXPONENT}: {short_repr(s)}"
    try:
        return "value", Fraction(s)
    except (ValueError, ZeroDivisionError):
        return "error", f"not a valid rational literal: {short_repr(s)}"


_LITERALS = st.one_of(
    # Anything Fraction's grammar touches, with digits int() and Fraction treat apart.
    st.text(alphabet="0123456789/+-_ .eE\uff11\u0663\u00b2", max_size=12),
    # Mostly the fast path's own forms: digits, leading zeros, empty sides, zeros.
    st.from_regex(r"\A0*[0-9]{0,4}(/0*[0-9]{0,4})?\Z"),
    st.sampled_from(["0/0", "1/0", "00/000", "/", "/7", "7/", "0", "007/010", "\u0663/4", "\u00b2/3"]),
    # Lengths at and just past the bound.
    st.sampled_from([LITERAL_MAX_CHARS, LITERAL_MAX_CHARS + 1]).flatmap(
        lambda size: st.sampled_from(["7" * size, "1/" + "3" * (size - 2), "3" * (size - 2) + "/0"])
    ),
)


@given(_LITERALS)
def test_as_fraction_matches_fraction_of_the_string(s):
    try:
        outcome = "value", as_fraction(s)
    except InputError as exc:
        outcome = "error", str(exc)
    assert outcome == _reference_outcome(s)


def test_fraction_canonical_form():
    x = as_fraction("6/4")
    assert (x.numerator, x.denominator) == (3, 2)
    assert as_fraction("-2/4").denominator == 4 // 2


@given(rationals, rationals)
def test_rational_addition_round_trips(a, b):
    assert (a + b) - b == a


@given(rationals, rationals)
def test_rational_multiplication_round_trips(a, b):
    if b != 0:
        assert (a * b) / b == a


# ---------------------------------------------------------------------------
# Instance and bundle values


def test_instance_rejects_ragged_and_negative():
    with pytest.raises(InputError):
        Instance.from_rows([[1, 2], [1]])
    with pytest.raises(InputError):
        Instance.from_rows([[1, "-1/2"]])


_REPEATED_CELLS = st.sampled_from(["1/2", "2/4", "3", "03", "0", "1/3", 1, 0, Fraction(1, 2)])


@given(st.lists(st.lists(_REPEATED_CELLS, min_size=3, max_size=3), min_size=1, max_size=4))
def test_from_rows_parses_repeated_literals_as_each_cell_alone(rows):
    assert Instance.from_rows(rows).valuations == tuple(tuple(as_fraction(v) for v in row) for row in rows)


@pytest.mark.parametrize(
    "rows, message",
    [
        ([["1/2", "x", "1/2"], ["y", "x"]], "not a valid rational literal: 'x'"),
        ([["1/2", "1/2"], ["1/2", 0.5], ["x", "x"]], "not a rational: 0.5 (floats are not accepted)"),
        ([["1", True]], "not a rational: True (floats are not accepted)"),
        ([[1, True]], "not a rational: True (floats are not accepted)"),
        ([["1/2", [1]]], "not a rational: [1] (floats are not accepted)"),
        # A literal in the memo never serves a cell of another type.
        ([[1, 1], [True, 1]], "not a rational: True (floats are not accepted)"),
        ([["1/2"], [0.5]], "not a rational: 0.5 (floats are not accepted)"),
        ([[[1]]], "not a rational: [1] (floats are not accepted)"),
        # Two new bad literals in a row, in both orders: the first in the row raises.
        ([["1/2", "y", "x"]], "not a valid rational literal: 'y'"),
        ([["1/2", "x", "y"]], "not a valid rational literal: 'x'"),
    ],
)
def test_from_rows_reports_the_first_bad_cell(rows, message):
    with pytest.raises(InputError) as info:
        Instance.from_rows(rows)
    assert str(info.value) == message


class _Text(str):
    """A str subclass, which the literal memo never serves."""


# Half the cells come from a small pool, so that equal values of different
# types, and several bad literals, meet in one row; and half the rows hold
# only ints and strs, which are read through the memo.
_PLAIN = st.sampled_from([1, "1", 0, "0", "1/2", "2/4", 7, "x", "y", "1/0", "", -1])
_CELLS = st.one_of(
    st.sampled_from([1, True, "1", _Text("1"), Fraction(1), 0, False, "0", 0.5, "1/2", "x", "y", "1/0", "", -1]),
    st.one_of(
        st.integers(-1, 12),
        st.builds(lambda p, q: f"{p}/{q}", st.integers(0, 30), st.integers(1, 9)),
        st.builds(lambda a, b: f"{a}.{b}", st.integers(0, 9), st.integers(0, 99)),
        st.sampled_from(["2/4", "03", "7/3", "1e2", "2.5e-1"]).map(_Text),
        st.fractions(0, 5, max_denominator=7),
    ),
)


def _reference_instance(rows) -> Instance:
    """``Instance.from_rows`` read cell by cell, with no memo."""
    scaled = tuple(scale_row([as_fraction(v).as_integer_ratio() for v in row]) for row in rows)
    return Instance(scaled, len(scaled[0][0]))


@settings(max_examples=300, derandomize=True)
@given(
    st.tuples(st.integers(0, 5), st.sampled_from([_CELLS, _PLAIN])).flatmap(
        lambda mc: st.lists(st.lists(mc[1], min_size=mc[0], max_size=mc[0] + (mc[0] == 5)), min_size=1, max_size=4)
    )
)
def test_from_rows_matches_a_cell_by_cell_read(rows):
    # Rows of 5 cells may be ragged; mostly the cells repeat across rows.
    try:
        expected = _reference_instance(rows)
    except InputError as exc:
        with pytest.raises(InputError) as info:
            Instance.from_rows(rows)
        assert str(info.value) == str(exc)
    else:
        assert Instance.from_rows(rows) == expected


_LONG_LITERAL = "1/" + "7" * (LITERAL_MAX_CHARS - 2)
# Cells that tell the trusted row path from the checked one: a bool, a float or
# a Fraction beside an equal int, signs, zeros and exponents, and literals at the cap.
_ROW_CELLS = st.one_of(
    st.sampled_from(
        [1, True, 1.0, "1", 0, "0/5", "-0", "+3", "1e3", "-1", -1, "1/2", "2/4", "-1/2", "x", Fraction(1, 2), Fraction(-1, 2)]
        + [_LONG_LITERAL, _LONG_LITERAL + "7"]
    ),
    st.integers(-2, 9),
)


@example([[True, 1]], None)
@example([[1, True]], None)
@example([[1, 1], [1.0, 1]], None)
@example([["1/2", "1/2"], ["1/2", "-1/2"]], None)
@example([[1, 0], [0, 3], [0, -1]], None)
@example([["0/5", "-0", "+3", "1e3"]], None)
@example([[_LONG_LITERAL, "1"], ["1", _LONG_LITERAL]], None)
@example([[_LONG_LITERAL + "7", "1"]], None)
@example([[1, 2], [1]], None)
@example([[1, 2]], 3)
@example([[1, 2]], True)
@settings(max_examples=300, derandomize=True)
@given(
    st.lists(st.lists(_ROW_CELLS, min_size=2, max_size=3), min_size=1, max_size=4),
    st.sampled_from([None, 0, 2, 3, -1, True]),
)
def test_the_trusted_row_path_matches_the_checked_path(rows, num_goods):
    # The checked path: each cell alone, scale_row, then every check of Instance.
    try:
        scaled = tuple(scale_row([as_fraction(v).as_integer_ratio() for v in row]) for row in rows)
        expected = Instance(scaled, len(scaled[0][0]) if num_goods is None else num_goods)
    except InputError as exc:
        with pytest.raises(InputError) as info:
            Instance.from_rows(rows, num_goods)
        assert str(info.value) == str(exc)
    else:
        inst = Instance.from_rows(rows, num_goods)
        assert inst.scaled == expected.scaled and inst.num_goods == expected.num_goods
        assert {type(v) for ints, _ in inst.scaled for v in ints} <= {int}


def _unit_share_file(rng: random.Random, n: int, m: int) -> dict:
    """Ordered rows in which every n-share is 1: each agent splits the goods
    into n parts and each part's unit value by random weights 1..9."""
    rows = []
    for _ in range(n):
        sizes = [1] * n
        for _ in range(m - n):
            sizes[rng.randrange(n)] += 1
        row = []
        for size in sizes:
            weights = [rng.randint(1, 9) for _ in range(size)]
            row.extend(Fraction(w, sum(weights)) for w in weights)
        rows.append([str(v) for v in sorted(row, reverse=True)])
    return {"agents": n, "goods": m, "valuations": rows}


def test_instance_file_parses_each_distinct_literal_once(monkeypatch):
    n = 80
    obj = _unit_share_file(random.Random(7), n, 3 * n + 2)
    parsed = []

    def counting(x):
        parsed.append(x)
        return as_fraction(x)

    monkeypatch.setattr(core, "as_fraction", counting)
    inst = instance_from_json(obj)
    distinct = {v for row in obj["valuations"] for v in row}
    assert sorted(parsed) == sorted(distinct)
    assert len(distinct) < 400 < n * (3 * n + 2)
    assert inst.valuations == tuple(tuple(Fraction(v) for v in row) for row in obj["valuations"])


def test_a_clean_instance_file_is_not_checked_twice(monkeypatch):
    # Rows of literals that parse to non-negative values, each of the right
    # length, are built without Instance.__post_init__; a negative cell is not.
    checks = []
    post_init = Instance.__post_init__

    def counted(self):
        checks.append(self.num_agents)
        post_init(self)

    monkeypatch.setattr(Instance, "__post_init__", counted)
    obj = _unit_share_file(random.Random(7), 30, 92)
    inst = instance_from_json(obj)
    assert checks == []
    assert inst.valuations == tuple(tuple(Fraction(v) for v in row) for row in obj["valuations"])
    with pytest.raises(InputError, match=re.escape("valuations[1][0] is negative: -1/2")):
        Instance.from_rows([["1/2"], ["-1/2"]])
    assert checks == [2]


_values = st.fractions(min_value=0, max_value=3, max_denominator=4)


@example([[]], False)  # m = 0 and m = 1 are ordered
@example([[Fraction(5)], [Fraction(0)]], False)
@example([[Fraction(2), Fraction(2), Fraction(1)], [Fraction(1), Fraction(2), Fraction(2)]], False)
@given(
    st.integers(0, 5).flatmap(
        lambda m: st.lists(st.lists(_values, min_size=m, max_size=m), min_size=1, max_size=4)
    ),
    st.booleans(),
)
def test_instance_totals_and_order_match_recomputation(rows, sort_rows):
    if sort_rows:
        rows = [sorted(row, reverse=True) for row in rows]
    inst = Instance.from_rows(rows)
    assert inst.totals == tuple(sum(row, Fraction(0)) for row in rows)
    assert inst.ordered == all(
        row[g] >= row[g + 1] for row in rows for g in range(len(row) - 1)
    )


@given(
    st.integers(0, 6).flatmap(
        lambda m: st.lists(
            st.lists(
                st.one_of(st.just(Fraction(0)), st.fractions(0, 50, max_denominator=12)),
                min_size=m,
                max_size=m,
            ),
            min_size=1,
            max_size=3,
        )
    ),
    st.booleans(),
    st.data(),
)
def test_integer_kernel_matches_fraction_recomputation(rows, sort_rows, data):
    # Rows mix denominators and zeros, so each row's L differs.
    if sort_rows:
        rows = [sorted(row, reverse=True) for row in rows]
    inst = Instance.from_rows(rows)
    for i, row in enumerate(rows):
        ints, scale = inst.scaled[i]
        assert [Fraction(v, scale) for v in ints] == row
        bundle = data.draw(st.frozensets(st.integers(0, len(row) - 1)) if row else st.just(frozenset()))
        assert bundle_value(inst, i, bundle) == sum((row[g] for g in bundle), Fraction(0))
    assert inst.totals == tuple(sum(row, Fraction(0)) for row in rows)
    assert inst.ordered == all(a >= b for row in rows for a, b in zip(row, row[1:]))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Instance.from_rows(["12", "21"]), "row 0 is a string, not a sequence of values: '12'"),
        (lambda: Instance.from_rows([[1, 2], "12"]), "row 1 is a string, not a sequence of values: '12'"),
        (lambda: ThresholdList("11"), "taus must be a sequence of rationals, not a string: '11'"),
        (lambda: Instance.from_rows(5), "rows must be a sequence of rows, got 5"),
        (lambda: Instance.from_rows([5]), "row 0 is not a sequence of values: 5"),
        (lambda: ThresholdList(5), "taus must be a sequence of rationals, got 5"),
        (lambda: Instance(((1,),), 1), "scaled[0] must be a pair (ints, L) with ints a tuple, got (1,)"),
        (lambda: Instance(([1], 1), 1), "scaled[0] must be a pair (ints, L) with ints a tuple, got [1]"),
        (lambda: Instance((([1], 1),), 1), "scaled[0] must be a pair (ints, L) with ints a tuple, got ([1], 1)"),
        (lambda: Instance([((1,), 1)], 1), "scaled must be a tuple of (ints, L) pairs, got [((1,), 1)]"),
        # Bytes would be read as a row of ints.
        (lambda: Instance.from_rows([b"12"]), "row 0 is a string, not a sequence of values: b'12'"),
        (
            lambda: Instance.from_rows([[1, 2], bytearray(b"12")]),
            "row 1 is a string, not a sequence of values: bytearray(b'12')",
        ),
    ],
    ids=[
        "row", "later-row", "taus", "rows-int", "row-int", "taus-int", "scaled-row-not-a-pair",
        "scaled-row-a-list", "scaled-ints-a-list", "scaled-a-list", "row-bytes", "later-row-bytearray",
    ],
)
def test_malformed_library_input_is_a_one_line_input_error(build, message):
    with pytest.raises(InputError) as info:
        build()
    assert str(info.value) == message


def test_bundle_value_empty_is_zero():
    inst = Instance.from_rows([[1, 2, 3]])
    assert bundle_value(inst, 0, frozenset()) == 0


def test_bundle_value_direct_addition():
    inst = Instance.from_rows([["1/2", "1/3"]])
    assert bundle_value(inst, 0, {0, 1}) == Fraction(5, 6)


def test_bundle_value_index_errors():
    inst = Instance.from_rows([[1, 2]])
    with pytest.raises(InputError):
        bundle_value(inst, 1, {0})
    with pytest.raises(InputError):
        bundle_value(inst, 0, {5})


def test_bundle_value_additive_over_disjoint_bundles():
    rng = random.Random(0)
    for _ in range(50):
        m = rng.randint(1, 8)
        inst = Instance.from_rows([[rng.randint(0, 9) for _ in range(m)]])
        goods = list(range(m))
        rng.shuffle(goods)
        cut = rng.randint(0, m)
        a, b = frozenset(goods[:cut]), frozenset(goods[cut:])
        assert bundle_value(inst, 0, a | b) == bundle_value(inst, 0, a) + bundle_value(inst, 0, b)


# ---------------------------------------------------------------------------
# Allocation / Partition invariants


def test_allocation_rejects_overlap():
    with pytest.raises(InputError):
        Allocation((frozenset({0, 1}), frozenset({1})))
    with pytest.raises(InputError):
        Allocation((frozenset({0}),), unallocated=frozenset({0}))


def test_partition_rejects_overlap():
    with pytest.raises(InputError):
        Partition((frozenset({0}), frozenset({0, 1})))


def test_priority_ranking_must_be_permutation():
    with pytest.raises(InputError):
        PriorityRanking((0, 0, 1))
    assert PriorityRanking.identity(3).agents_by_rank() == (0, 1, 2)
    assert PriorityRanking.rotation(3, 1).agents_by_rank() == (2, 0, 1)


def test_thresholds_must_be_sorted_and_bounded():
    with pytest.raises(InputError):
        ThresholdList((Fraction(1, 2), Fraction(3, 4)))
    with pytest.raises(InputError):
        ThresholdList((Fraction(3, 2),))
    ThresholdList((Fraction(1), Fraction(1, 2), Fraction(0)))


# ---------------------------------------------------------------------------
# Threshold satisfaction


def _two_agent_setup():
    inst = Instance.from_rows([[1, 1], [1, 1]])
    alloc = Allocation((frozenset({0}), frozenset({1})))
    ranking = PriorityRanking.identity(2)
    return inst, alloc, ranking


def test_is_T_mms_zero_thresholds_always_pass():
    inst, _, ranking = _two_agent_setup()
    empty = Allocation((frozenset(), frozenset()), unallocated=frozenset({0, 1}))
    T = ThresholdList.constant(2, 0)
    assert all(c.ok for c in check_t_mms(inst, empty, ranking, T))


def test_is_T_mms_boundary_is_inclusive():
    # The one agent's 1-share is 1, and her bundle is worth exactly 3/4 of it.
    inst = Instance.from_rows([["3/4", "1/4"]])
    alloc = Allocation((frozenset({0}),), unallocated=frozenset({1}))
    T = ThresholdList.constant(1, Fraction(3, 4))
    assert all(c.ok for c in check_t_mms(inst, alloc, PriorityRanking.identity(1), T))


def test_is_T_mms_identical_two_agent_instance():
    # Each agent's 2-bundle share of two unit goods is 1 (brute force: the
    # only balanced split is one good each).
    inst, alloc, ranking = _two_agent_setup()
    T = ThresholdList.constant(2, 1)
    assert all(c.ok for c in check_t_mms(inst, alloc, ranking, T))


def test_is_T_mms_dimension_mismatch():
    inst, alloc, ranking = _two_agent_setup()
    with pytest.raises(InputError):
        check_t_mms(inst, alloc, ranking, ThresholdList.constant(3, 1))


@given(st.data())
def test_is_T_mms_monotone_in_thresholds_and_bundles(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    n, m = 3, 6
    inst = Instance.from_rows([[rng.randint(0, 9) for _ in range(m)] for _ in range(n)])
    goods = list(range(m))
    rng.shuffle(goods)
    bundles = [frozenset(goods[i::n]) for i in range(n)]
    alloc = Allocation(tuple(bundles))
    mms_values = [Fraction(rng.randint(0, 5)) for _ in range(n)]
    tau = Fraction(rng.randint(0, 4), 4)
    high = [tau * v for v in mms_values]
    low = [tau / 2 * v for v in mms_values]
    if all(c.ok for c in check_targets(inst, alloc, high)):
        # Lowering thresholds cannot break satisfaction.
        assert all(c.ok for c in check_targets(inst, alloc, low))
        # Growing a bundle with unallocated goods cannot break it either.
        grown = Allocation((bundles[0] | alloc.unallocated,) + tuple(bundles[1:]))
        assert all(c.ok for c in check_targets(inst, grown, high))
