"""Odd arguments to the public functions end in a result or a typed error.

Every public function of the covered modules, each constructor of ``core``'s
records, and each responder method the threshold allocator calls, is called
with each parameter either valid or drawn from odd values: ints out of
range, bools, floats, strings, None, short lists and a list nested past the
recursion limit. Any exception but an ``MmsKitError`` fails, except the
documented ``TypeError`` or ``AttributeError`` when a parameter whose type
is a library record gets something else.
"""

import inspect
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mmskit import (
    Allocation,
    InputError,
    Instance,
    MmsKitError,
    Partition,
    PriorityRanking,
    adversarial,
    bobw,
    oracle,
    ordinal,
    priority_thresholds,
    rbf,
    transform,
    verify,
)
from mmskit.core import MAX_N, ThresholdList, check_int

_MODULES = (adversarial, bobw, oracle, ordinal, rbf, transform, verify)
_CONSTRUCTORS = (
    Instance, Instance.from_rows, Allocation, Partition, ThresholdList, ThresholdList.constant,
    PriorityRanking, PriorityRanking.identity, PriorityRanking.rotation,
)
_RECORDS = {
    "Instance", "Allocation", "Partition", "ThresholdList", "PriorityRanking", "Transcript", "AllocationDistribution",
    "ValueResponder", "HardInstanceSpec", "Bag",
}

_UNIT_PAIR = Instance.from_rows([["1/2"] * 4] * 2)
_SPLIT = Allocation(({0, 1}, {2, 3}))
_RESPONDERS = (
    rbf.TruthfulResponder(_UNIT_PAIR),
    adversarial.ScriptedHard2Responder(adversarial.gen_hard2_responders(2, 2, 1, 0, 3)),
)
# One valid value per parameter name; each call with these returns.
_VALID = {
    "inst": _UNIT_PAIR,
    "thresholds": priority_thresholds(2),
    "dist": bobw.cyclic_rotation_distribution(_UNIT_PAIR, priority_thresholds(2)),
    "seed": 0,
    "n": 3,
    "lo": 1,
    "hi": 3,
    "p": 4,
    "q": 3,
    "value": Fraction(1, 3),
    "min_goods": 5,
    "d": 2,
    "node_budget": None,
    "partition": Partition(({0, 1}, {2, 3})),
    "witness": Partition(({0, 1}, {2, 3})),
    "agent": 1,
    "targets": (Fraction(1), 1),
    "ranking": PriorityRanking.identity(2),
    "tr": ordinal.run_ordinal(_UNIT_PAIR)[1],
    "ordered_alloc": _SPLIT,
    "normalized": _UNIT_PAIR,
    "ordered": _UNIT_PAIR,
    "alloc": _SPLIT,
    "original": _UNIT_PAIR,
    "survivors": (1, 0),
    "goods": range(5),
    "agents_left": 2,
    "responder": _RESPONDERS[0],
    "open_bags": [0, 1],
    "i": 3,
    "epsilon": Fraction(1, 12),
    "k1": 1,
    "k2": 0,
    "t": 3,
    "spec": adversarial.HardInstanceSpec("hard1", 3, i=3),
    "scaled": _UNIT_PAIR.scaled,
    "num_goods": 4,
    "rows": [["1/2"] * 4] * 2,
    "bundles": ({0, 1}, {2, 3}),
    "unallocated": (),
    "parts": ({0, 1}, {2, 3}),
    "taus": ("1", "3/4"),
    "tau": "3/4",
    "rank_of": (1, 0),
    "shift": 1,
}
# Where one function reads a name as something else.
_VALID_FOR = {
    ("value", "goods"): rbf.Bag({0, 1}),
    ("mms", "goods"): range(4),
    ("demonstrate_failure", "thresholds"): None,
}


def _valid(f, name):
    return _VALID_FOR.get((f.__name__, name), _VALID[name])


# A list nested past the recursion limit: repr cannot write it.
_DEEP: list = []
for _ in range(3000):
    _DEEP = [_DEEP]

# Ints out of range are picked, not drawn: an in-range n, hi or p of a
# thousand digits is a valid, and slow, call.
_ODD = st.one_of(
    st.just(_DEEP),
    st.sampled_from([-1, 0, MAX_N + 1, 2**64, 10**30, -(10**30), 10**5000, -(10**5000)]),
    st.integers(max_value=-1),
    st.booleans(),
    st.floats(),
    st.text(max_size=3),
    st.none(),
    st.lists(st.one_of(st.integers(-2, 5), st.booleans(), st.none(), st.floats(), st.text(max_size=1)), max_size=3),
)


_FUNCTIONS = [
    f
    for module in _MODULES
    for name, f in sorted(vars(module).items())
    if not name.startswith("_") and inspect.isfunction(f) and f.__module__ == module.__name__
] + [*_CONSTRUCTORS] + [getattr(r, name) for r in _RESPONDERS for name in ("unit", "value", "choose_bag")]


def test_every_public_function_has_a_valid_call():
    # 4 in adversarial, 12 in bobw, 3 in oracle, 2 in ordinal, 5 in rbf,
    # 6 in transform, 8 in verify, 9 constructors, and 3 methods of each responder
    assert len(_FUNCTIONS) == 55
    for f in _FUNCTIONS:
        f(**{name: _valid(f, name) for name in inspect.signature(f).parameters})


@settings(max_examples=580, deadline=None, derandomize=True)
@given(st.data())
def test_odd_arguments_end_in_a_result_or_a_typed_error(data):
    f = data.draw(st.sampled_from(_FUNCTIONS), label="function")
    args, odd_record = {}, False
    for name, parameter in inspect.signature(f).parameters.items():
        if data.draw(st.booleans(), label=f"{name} is odd"):
            args[name] = data.draw(_ODD, label=name)
            odd_record |= parameter.annotation.removesuffix(" | None") in _RECORDS
        else:
            args[name] = _valid(f, name)
    try:
        f(**args)
    except MmsKitError:
        pass
    except (TypeError, AttributeError):
        if not odd_record:
            raise


class _OddChoice(rbf.TruthfulResponder):
    """Truthful answers; each loose good's bag is the first open bag's index
    as ``kind``, a float or a bool."""

    def __init__(self, instance, kind):
        super().__init__(instance)
        self.kind = kind

    def choose_bag(self, open_bags):
        return self.kind(open_bags[0])


# Phase 1 takes nothing and phase 2's first round likes no bag, so a loose good is placed.
_FILLS = Instance.from_rows([["1/2", "1/2", "1/4", "1/4", "1/4", "1/4"]] * 2)

# Values 1/(10**990 + 2k + 1), decreasing: each is short, but a sum of a few
# has a denominator past Python's 4300-digit limit for str.
_TINY = tuple(Fraction(1, 10**990 + 2 * k + 1) for k in range(10))
_TINY_TAU = ThresholdList((1, 1, Fraction(1, 10**5000)))

# Calls that raised a raw error before they were mended, some found by the
# test above; each must now raise InputError.
_MENDED = [
    (bobw.fraction_to_decimal, (0.5,)),
    (bobw.fraction_to_decimal, ("1/3",)),
    (bobw.sample_allocation, (bobw.AllocationDistribution((), (), ()), 0)),
    (bobw.fraction_to_decimal, (10**5000,)),
    (bobw.ln_enclosure, (2**20000, 3**20000)),
    (transform.reinstate, (_SPLIT, _UNIT_PAIR, (5, 0))),
    (transform.reinstate, (_SPLIT, _UNIT_PAIR, ("a", 0))),
    (priority_thresholds, (10**5000,)),
    (check_int, ("x", -(10**5000), 0)),
    (Instance.from_rows, ([[-(10**5000)]],)),
    (ThresholdList, ((Fraction(10**5000, 3),),)),
    (rbf.reduction_shapes, (5, 2)),
    (rbf.reduction_shapes, ([[0]], 2)),
    (verify.unit_share_violations, (_UNIT_PAIR, 2.5)),
    (verify.unit_share_violations, (_UNIT_PAIR, "x")),
    (_RESPONDERS[0].choose_bag, ([],)),
    (_RESPONDERS[1].choose_bag, ([],)),
    (adversarial.gen_ordinal_tight, (10**5000,)),
    (adversarial.gen_hard1, (3, 3, 10**5000)),
    (rbf.run_rbf, (_OddChoice(_FILLS, float), ThresholdList.constant(2, 1))),
    (rbf.run_rbf, (_OddChoice(_FILLS, bool), ThresholdList.constant(2, 1))),
    (Instance.from_rows, (_DEEP,)),
    (Instance, (_DEEP, 1)),
    (Allocation, (_DEEP,)),
    (Partition, (_DEEP,)),
    (ThresholdList, (_DEEP,)),
    (PriorityRanking, (_DEEP,)),
    (check_int, ("x", _DEEP)),
    (oracle.mms, (_UNIT_PAIR, 0, 2, _DEEP)),
    (oracle.mms, (_UNIT_PAIR, 0, _DEEP)),
    (oracle.mms_all, (_UNIT_PAIR, _DEEP)),
    (Instance, (_UNIT_PAIR.scaled, 10**5000)),
    (Instance.from_rows, ([["1/2"] * 4], 10**5000)),
    (Instance, ((((2,), 2 * 10**5000),), 1)),
    (ThresholdList, ((Fraction(10**5000, 10**5000 + 1), 1),)),
    (adversarial.demonstrate_failure, (adversarial.HardInstanceSpec("hard1", 3, i=3), _TINY_TAU)),
    (adversarial.demonstrate_failure, (adversarial.HardInstanceSpec("hard2", 3, i=3, k1=1, k2=0, t=3), _TINY_TAU)),
    (rbf.require_unit_shares, (Instance.from_rows([[Fraction(1, 3), Fraction(1, 3), *_TINY]] * 2),)),
]
# Checks whose messages raised a raw ValueError on such values before they
# were mended; each now returns its violations.
_MENDED_CHECKS = [
    (verify.check_witness, (Instance.from_rows([_TINY[:6]] * 2), 0, Partition((frozenset(range(6)),)))),
    (verify.check_unit_share_structure, (Instance.from_rows([[Fraction(9, 10), Fraction(9, 10) - sum(_TINY[1:6]), *_TINY[1:6]]]), 1)),
]


@pytest.mark.parametrize("f, args", _MENDED, ids=lambda v: v.__name__ if callable(v) else None)
def test_each_mended_call_raises_an_input_error(f, args):
    with pytest.raises(InputError):
        f(*args)


@pytest.mark.parametrize("f, args", _MENDED_CHECKS, ids=lambda v: v.__name__ if callable(v) else None)
def test_each_mended_check_reports_each_violation_in_one_short_line(f, args):
    violations = f(*args)
    assert violations and all("\n" not in v and len(v) < 1000 for v in violations)
