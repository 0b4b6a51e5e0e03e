"""Rules that hold across the whole package source."""

import ast
import dataclasses
import importlib
import inspect
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import mmskit
from mmskit import (
    Allocation,
    Bag,
    HardInstanceSpec,
    Instance,
    InputError,
    Partition,
    PriorityRanking,
    ThresholdList,
    TruthfulResponder,
    adversarial,
    bundle_value,
    check_1_out_of_d,
    check_t_mms,
    check_unit_share_structure,
    cyclic_rotation_distribution,
    equivalence_expand,
    gen_hard1,
    gen_hard2_responders,
    gen_ordinal_tight,
    mms,
    oracle,
    priority_thresholds,
    rbf,
    run_1_out_of_d,
    run_ordinal,
    run_rbf,
    run_rbf_truthful,
    sample_allocation,
    verify,
)
from mmskit.bobw import ln_enclosure
from mmskit.cli import instance_from_json
from mmskit.core import MAX_N, Transcript
from mmskit.oracle import MAX_PARTS, mms_all
from mmskit.rbf import reduction_shapes
from mmskit.transform import (
    MAX_PADDED_GOODS,
    normalize,
    pad_agents_to_multiple_of_3,
    pad_goods,
    reinstate,
    unpick,
)
from mmskit import ordinal, transform
from mmskit.verify import check_witness


def _modules():
    root = Path(mmskit.__file__).parent
    return {
        path.relative_to(root).as_posix(): ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(root.rglob("*.py"))
    }


def test_exports_are_sorted_unique_and_resolve():
    # A deleted name must not stay behind in the exports.
    names = mmskit.__all__
    assert names == sorted(set(names))
    assert [name for name in names if not hasattr(mmskit, name)] == []


def test_no_assert_statements_in_the_package():
    # `python -O` strips assert statements, so an invariant must raise instead.
    found = [
        f"{name}:{node.lineno}"
        for name, tree in _modules().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_only_core_scales_rows_to_integers():
    # One owner of the integer form of a row: Instance.scaled.
    found = [
        f"{name}:{node.lineno}"
        for name, tree in _modules().items()
        for node in ast.walk(tree)
        if (isinstance(node, ast.ImportFrom) and any(a.name == "lcm" for a in node.names))
        or (isinstance(node, ast.Attribute) and node.attr == "lcm")
    ]
    assert found and all(f.startswith("core.py:") for f in found), found


def test_no_output_goes_through_the_indented_json_dumps():
    # json.dumps(indent=...) runs json's pure-Python encoder, one call per
    # token; cli._json_text writes the same bytes.
    found = [
        f"{name}:{node.lineno}"
        for name, tree in _modules().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) == "dumps"
        and any(k.arg == "indent" for k in node.keywords)
    ]
    assert found == []


def test_the_cli_writes_every_rational_through_one_helper():
    # str of a Fraction past Python's digit limit raises a raw ValueError;
    # cli._fraction_text turns it into InputError. The one other str call
    # writes an int inside _json_text.
    tree = _modules()["cli.py"]
    found = sorted(
        func.name
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "str"
    )
    assert found == ["_fraction_text", "_json_text"]


def test_verify_does_not_import_rbf_at_run_time():
    # rbf imports verify to judge each truthful run, so verify does not
    # import rbf; the run record it checks lives in core.
    found = [
        node.lineno
        for node in ast.walk(_modules()["verify.py"])
        if (isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "rbf")
        or (isinstance(node, (ast.Import, ast.ImportFrom)) and any(a.name.split(".")[-1] == "rbf" for a in node.names))
    ]
    assert found == []


def test_one_run_record_for_both_bag_fillers():
    # Both bag fillers log a core.Transcript, which verify imports at run
    # time; the ordinal filler's own record stays deleted.
    def names(node):
        if isinstance(node, ast.ClassDef):
            return node.name
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute):
            return node.attr
        return node.name if isinstance(node, ast.alias) else None

    modules = _modules()
    classes = {
        (path, node.name)
        for path, tree in modules.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name == "Transcript"
    }
    assert classes == {("core.py", "Transcript")}
    assert [path for path, tree in modules.items() for node in ast.walk(tree) if names(node) == "OrdinalRun"] == []
    assert [node.lineno for node in ast.walk(modules["verify.py"]) if names(node) == "TYPE_CHECKING"] == []
    # The record stores the log alone. Who reached phase 2, who was satisfied
    # and whether goods ran out are its properties: no filler passes them, and
    # no filler keeps them (run_ordinal's ran_out still ends its loop).
    assert [f.name for f in dataclasses.fields(Transcript)] == [
        "num_agents", "num_goods", "reductions", "bag_events", "initial_bags"
    ]
    derived = {"phase2_agents", "phase2_goods", "satisfied", "ran_out_of_goods"}
    for path, banned in (("rbf.py", derived | {"ran_out"}), ("ordinal.py", derived)):
        calls = [node for node in ast.walk(modules[path]) if isinstance(node, ast.Call) and names(node.func) == "Transcript"]
        assert len(calls) == 1 and not calls[0].args, path
        assert {k.arg for k in calls[0].keywords} == {f.name for f in dataclasses.fields(Transcript)}, path
        assert [node.lineno for node in ast.walk(modules[path]) if isinstance(node, ast.Name) and node.id in banned] == [], path


def test_adversarial_runs_no_truthful_run_of_its_own():
    # A truthful run is made and judged by rbf.run_rbf_truthful alone, so
    # adversarial neither builds a TruthfulResponder nor judges T-MMS.
    found = [
        node.lineno
        for node in ast.walk(_modules()["adversarial.py"])
        if (isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "TruthfulResponder")
        or (isinstance(node, ast.Name) and node.id == "check_t_mms")
        or (isinstance(node, ast.Attribute) and node.attr == "check_t_mms")
        or (isinstance(node, ast.alias) and node.name == "check_t_mms")
    ]
    assert found == []


def test_only_verify_decides_the_unit_share_input():
    # verify.unit_share_violations alone compares each total with d and names
    # an unordered instance; the validators it replaced stay deleted.
    def role(node):
        if isinstance(node, ast.Attribute) and node.attr == "totals":
            return "reads totals"
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "UNORDERED" for t in node.targets):
            return "defines UNORDERED"
        if isinstance(node, ast.FunctionDef) and node.name in ("require_ordered", "check_bag_pair_bounds"):
            return f"defines {node.name}"
        return None

    found = {(path, r) for path, tree in _modules().items() for node in ast.walk(tree) if (r := role(node))}
    assert found == {("verify.py", "defines UNORDERED"), ("verify.py", "reads totals")}


def test_no_guarantee_check_takes_a_share_on_trust():
    # check_1_out_of_d and check_t_mms compare against the oracle's shares; a
    # caller that has proved its targets passes them to verify.check_targets.
    assert "shares" not in inspect.signature(check_1_out_of_d).parameters
    assert "shares" not in inspect.signature(check_t_mms).parameters
    assert not hasattr(verify, "_shares") and not hasattr(mmskit, "check_targets")
    found = [
        f"{path}:{node.lineno}"
        for path, tree in _modules().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.keyword) and node.arg == "shares"
    ]
    assert found == []


def test_each_witness_is_checked_once_where_it_is_made(monkeypatch):
    # run_1_out_of_d checks each witness of normalize on the normalized
    # instance; run_ordinal and the unit-share checks take no witnesses, and
    # no witness is carried to the sorted positions, so the trusted
    # construction has one caller.
    assert not hasattr(transform, "permute_partition")
    assert list(inspect.signature(run_ordinal).parameters) == ["inst"]
    for check in (verify.unit_share_violations, verify.check_unit_share_structure):
        assert list(inspect.signature(check).parameters) == ["inst", "d"]
    modules = _modules()
    callers = {
        (path, func.name)
        for path, tree in modules.items()
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_unchecked"
    }
    assert callers == {("core.py", "from_rows")}

    calls = []

    def counted(name, real):
        def call(*args):
            calls.append(name)
            return real(*args)
        return call

    for module in (ordinal, verify):
        for name in ("check_witness", "unit_share_violations"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    rows = [[1 + (i * 7 + g * 5) % 11 for g in range(10)] for i in range(4)]  # 4 agents, padded to 6
    run_1_out_of_d(Instance.from_rows(rows))
    assert calls == ["check_witness"] * 6


def test_error_messages_echo_a_value_only_through_short_repr():
    # A ``!r`` in an f-string echoes the whole value, however long; only
    # core.short_repr, which cuts it, may use one. A Fraction built in an
    # f-string is written out whole too, and one past Python's digit limit
    # for str raises ValueError, so it too must go through short_repr.
    def builds_a_fraction(value):
        return not (isinstance(value, ast.Call) and getattr(value.func, "id", None) == "short_repr") and any(
            isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Fraction" for node in ast.walk(value)
        )

    found = []
    for path, tree in _modules().items():
        exempt = {
            id(inner)
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "short_repr"
            for inner in ast.walk(node)
        }
        found += [
            f"{path}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.FormattedValue) and id(node) not in exempt
            and (node.conversion == ord("r") or builds_a_fraction(node.value))
        ]
    assert found == []


def test_one_private_sandwich_for_the_three_curves():
    # The three integral_check_* curves go through bobw._sandwich; the general
    # integral API it replaced stays deleted, and only _sandwich encloses a
    # logarithm through ln_enclosure.
    def name(node):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            return node.name
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute):
            return node.attr
        return node.name if isinstance(node, ast.alias) else None

    def owner(stmt):
        if isinstance(stmt, ast.Assign):
            return ",".join(getattr(t, "id", "?") for t in stmt.targets)
        return getattr(stmt, "name", type(stmt).__name__)

    modules = _modules()
    removed = [
        f"{path}:{node.lineno}"
        for path, tree in modules.items()
        for node in ast.walk(tree)
        if name(node) in ("IntegralValue", "integral_bound_check")
    ]
    assert removed == []
    assert [node.name for node in ast.walk(modules["bobw.py"]) if isinstance(node, ast.alias) and node.name == "as_fraction"] == []
    callers = {
        (path, owner(stmt))
        for path, tree in modules.items()
        for stmt in tree.body
        for node in ast.walk(stmt)
        if isinstance(node, (ast.Name, ast.Attribute)) and name(node) == "ln_enclosure"
    }
    assert callers == {("bobw.py", "_sandwich")}

    def owners(target):
        return {
            (path, owner(stmt))
            for path, tree in modules.items()
            for stmt in tree.body
            for node in ast.walk(stmt)
            if name(node) == target
        }

    # One integer log kernel serves ln_enclosure, the sweeps' window enclosure
    # and the bound records' constants.
    assert owners("_ln_fixed") == {
        ("bobw.py", "_ln_fixed"), ("bobw.py", "ln_enclosure"), ("bobw.py", "_harmonic_enclosure"), ("bobw.py", "_AverageBound"),
    }
    # No sandwich tabulates its curve or adds it up: each rank sum reaches
    # _sandwich from the record's exact engine, _rank_sum, which _certify
    # reads too, and only _rank_sum sums a harmonic window exactly.
    functions = {stmt.name: stmt for stmt in modules["bobw.py"].body if isinstance(stmt, ast.FunctionDef)}
    for function in ("_sandwich", "integral_check_gamma", "integral_check_hard1", "integral_check_hard2"):
        called = {name(node.func) for node in ast.walk(functions[function]) if isinstance(node, ast.Call)}
        assert called & {"sum", "priority_thresholds"} == set(), function
    assert owners("_rank_sum") == {("bobw.py", "_rank_sum"), ("bobw.py", "_certify"), ("bobw.py", "_sandwich")}
    assert owners("_reciprocal_range_sum") == {("bobw.py", "_reciprocal_range_sum"), ("bobw.py", "_rank_sum")}


def test_only_core_tests_whether_a_value_is_an_int():
    # One integer validator: core.check_int. Only core's own parsers (a
    # rational literal, a set of good indices) test for an int besides it.
    def names_int(node):
        elts = node.elts if isinstance(node, ast.Tuple) else [node]
        return any(isinstance(e, ast.Name) and e.id == "int" for e in elts)

    modules = _modules()
    found = [
        f"{name}:{node.lineno}"
        for name, tree in modules.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
        and len(node.args) == 2 and names_int(node.args[1])
    ]
    assert found and all(f.startswith("core.py:") for f in found), found
    defined = {
        node.name
        for tree in modules.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    assert defined & {"_check_n", "check_parts", "_is_count"} == set()


# ---------------------------------------------------------------------------
# Every integer parameter goes through core.check_int

_PAIR = Instance.from_rows([[2, 1, 1], [1, 1, 1]])  # 2 agents, 3 goods
_PAIR_ALLOCATION = Allocation((frozenset({0}), frozenset({1, 2})))
_UNIT_PAIR = Instance.from_rows([["1/2"] * 4] * 2)
_UNIT_TRIPLE = Instance.from_rows([[1, "1/2", "1/2"]] * 2)  # 2 agents, 3 goods, as _PAIR


def _agents(k):
    """An instance of k agents over two goods, for a callee that reads n from it."""
    return Instance.from_rows([[1, 1]] * k, num_goods=2)


class _SizedResponder:
    """A responder that reports the given sizes and likes everything."""

    def __init__(self, num_agents, num_goods):
        self.num_agents = num_agents
        self.num_goods = num_goods

    def unit(self, agent):
        return 1

    def value(self, agent, goods):
        return 1

    def choose_bag(self, open_bags):
        return open_bags[0]


def _hard2(**fields):
    args = {"n": 4, "i": 3, "k1": 1, "k2": 0, "t": 3, **fields}
    return HardInstanceSpec("hard2", **args)


def _hard2_script():
    return adversarial.ScriptedHard2Responder(gen_hard2_responders(2, 2, 1, 0, 3))


def _sample(seed):
    return sample_allocation(cyclic_rotation_distribution(_UNIT_PAIR, priority_thresholds(2)), seed)


# (label, parameter name, call with the value, least, most). least and most are
# None where the parameter has no such bound. A label ending in "*" names a
# count the callee reads from an instance, which is an int by construction, so
# only the value below its least applies, as an instance of that many agents.
# The eight bound functions of mmskit.bobw have their own table in test_bobw.py.
_INTEGER_PARAMETERS = [
    ("Instance", "num_goods", lambda v: Instance((), v), 0, None),
    ("bundle_value", "agent", lambda v: bundle_value(_PAIR, v, ()), 0, 1),
    ("check_witness", "agent", lambda v: check_witness(_UNIT_PAIR, v, Partition(({0, 1}, {2, 3}))), 0, 1),
    ("mms", "agent", lambda v: mms(_PAIR, v, 2), 0, 1),
    ("mms", "d", lambda v: mms(_PAIR, 0, v), 1, MAX_PARTS),
    ("mms", "node_budget", lambda v: mms(_PAIR, 0, 2, node_budget=v), 0, None),
    ("mms_all", "d", lambda v: mms_all(_agents(0), v), 1, MAX_PARTS),
    ("mms_all", "node_budget", lambda v: mms_all(_agents(0), 2, node_budget=v), 0, None),
    ("normalize", "d", lambda v: normalize(_PAIR, v), 1, MAX_PARTS),
    ("normalize", "node_budget", lambda v: normalize(_PAIR, 2, v), 0, None),
    ("check_1_out_of_d", "d", lambda v: check_1_out_of_d(_PAIR, _PAIR_ALLOCATION, v), 1, MAX_PARTS),
    (
        "check_1_out_of_d", "node_budget",
        lambda v: check_1_out_of_d(_PAIR, _PAIR_ALLOCATION, 2, node_budget=v), 0, None,
    ),
    (
        "check_t_mms", "node_budget",
        lambda v: check_t_mms(
            _PAIR, _PAIR_ALLOCATION, PriorityRanking.identity(2), ThresholdList.constant(2, 1), node_budget=v
        ),
        0, None,
    ),
    ("equivalence_expand", "d", lambda v: equivalence_expand(_PAIR, v), 1, MAX_PARTS),
    ("check_unit_share_structure", "d", lambda v: check_unit_share_structure(_UNIT_PAIR, v), 1, MAX_PARTS),
    ("reduction_shapes", "agents_left", lambda v: reduction_shapes(range(5), v), 1, None),
    ("TruthfulResponder.unit", "agent", lambda v: TruthfulResponder(_UNIT_PAIR).unit(v), 0, 1),
    ("TruthfulResponder.value", "agent", lambda v: TruthfulResponder(_UNIT_PAIR).value(v, Bag({0})), 0, 1),
    ("ScriptedHard2Responder.unit", "agent", lambda v: _hard2_script().unit(v), 0, 1),
    ("ScriptedHard2Responder.value", "agent", lambda v: _hard2_script().value(v, Bag({0})), 0, 1),
    ("priority_thresholds", "n", priority_thresholds, 1, MAX_N),
    ("ThresholdList.constant", "n", lambda v: ThresholdList.constant(v, 1), 0, MAX_N),
    ("PriorityRanking", "rank", lambda v: PriorityRanking((v, 0)), 0, 1),
    ("PriorityRanking.identity", "n", PriorityRanking.identity, 0, MAX_N),
    ("PriorityRanking.rotation", "n", lambda v: PriorityRanking.rotation(v, 1), 0, MAX_N),
    ("PriorityRanking.rotation", "shift", lambda v: PriorityRanking.rotation(2, v), None, None),
    (
        "run_rbf", "n",
        lambda v: run_rbf(_SizedResponder(v, 4), ThresholdList.constant(2, 1)), 1, None,
    ),
    (
        "run_rbf", "m",
        lambda v: run_rbf(_SizedResponder(1, v), ThresholdList.constant(1, 1)), 0, None,
    ),
    ("run_rbf_truthful*", "n", lambda k: run_rbf_truthful(_agents(k), ThresholdList(())), 1, None),
    ("run_ordinal*", "n", lambda k: run_ordinal(_agents(k)), 1, None),
    ("run_1_out_of_d*", "n", lambda k: run_1_out_of_d(_agents(k)), 1, None),
    ("run_1_out_of_d", "node_budget", lambda v: run_1_out_of_d(_PAIR, node_budget=v), 0, None),
    ("cyclic_rotation_distribution*", "n", lambda k: cyclic_rotation_distribution(_agents(k), ThresholdList(())), 1, None),
    ("sample_allocation", "seed", _sample, 0, 2**64 - 1),
    ("pad_agents_to_multiple_of_3*", "n", lambda k: pad_agents_to_multiple_of_3(_agents(k)), 1, None),
    ("pad_goods", "min_goods", lambda v: pad_goods(_PAIR, v), 0, MAX_PADDED_GOODS),
    ("reinstate", "survivor", lambda v: reinstate(_PAIR_ALLOCATION, _PAIR, [v, 0]), 0, 1),
    ("ln_enclosure", "p", lambda v: ln_enclosure(v, 1), None, None),
    ("ln_enclosure", "q", lambda v: ln_enclosure(4, v), 1, None),
    ("HardInstanceSpec-ordinalTight", "n", lambda v: HardInstanceSpec("ordinalTight", v), 2, None),
    ("HardInstanceSpec-hard1", "n", lambda v: HardInstanceSpec("hard1", v, i=3), 3, None),
    ("HardInstanceSpec-hard1", "i", lambda v: HardInstanceSpec("hard1", 5, i=v), 3, 5),
    ("HardInstanceSpec-hard2", "n", lambda v: _hard2(n=v, i=2), 2, None),
    ("HardInstanceSpec-hard2", "i", lambda v: _hard2(i=v), 2, 4),
    ("HardInstanceSpec-hard2", "k1", lambda v: _hard2(k1=v), 1, None),
    ("HardInstanceSpec-hard2", "k2", lambda v: _hard2(k2=v), 0, None),
    ("HardInstanceSpec-hard2", "t", lambda v: _hard2(t=v), 3, None),
    ("gen_ordinal_tight", "n", gen_ordinal_tight, 2, None),
    ("gen_hard1", "n", lambda v: gen_hard1(v, 3, Fraction(1, 12)), 3, None),
    ("gen_hard1", "i", lambda v: gen_hard1(5, v, Fraction(1, 12)), 3, 5),
    ("gen_hard2_responders", "n", lambda v: gen_hard2_responders(v, 2, 1, 0, 3), 2, None),
    ("gen_hard2_responders", "i", lambda v: gen_hard2_responders(4, v, 1, 0, 3), 2, 4),
    ("gen_hard2_responders", "k1", lambda v: gen_hard2_responders(4, 3, v, 0, 3), 1, None),
    ("gen_hard2_responders", "k2", lambda v: gen_hard2_responders(4, 3, 1, v, 3), 0, None),
    ("gen_hard2_responders", "t", lambda v: gen_hard2_responders(4, 3, 1, 0, v), 3, None),
    (
        "instance_from_json", "agents",
        lambda v: instance_from_json({"agents": v, "goods": 1, "valuations": [[1]]}), 0, None,
    ),
    (
        "instance_from_json", "goods",
        lambda v: instance_from_json({"agents": 1, "goods": v, "valuations": [[1]]}), 0, None,
    ),
]


def _integer_cases():
    for label, name, call, least, most in _INTEGER_PARAMETERS:
        not_ints = (2.5, "2", True) if name == "node_budget" else (2.5, "2", None, True)  # None: the default
        cases = [] if label.endswith("*") else [
            (value, f"{name} must be an integer, got {value!r}") for value in not_ints
        ]
        if least is not None:
            cases.append((least - 1, f"{name} must be >= {least}, got {least - 1}"))
        if most is not None:
            cases.append((most + 1, f"{name} must be <= {most}, got {most + 1}"))
        for value, message in cases:
            yield pytest.param(call, value, message, id=f"{label.rstrip('*')}-{name}-{value!r}")


# Every good index goes through Instance.check_goods or check_int: (label, call
# with one good of _PAIR). Each is called with 1.5, True, -1 and m = 3. An
# allocation's goods are checked against the instance before the oracle runs.
_GOOD_INDICES = [
    ("bundle_value", lambda g: bundle_value(_PAIR, 0, {g})),
    ("mms", lambda g: mms(_PAIR, 0, 2, goods={g})),
    # As a list, so that True is not lost in a set that already holds 1.
    ("Allocation-bundle", lambda g: check_1_out_of_d(_PAIR, Allocation(([1, g], [])), 2)),
    (
        "Allocation-unallocated",
        lambda g: check_t_mms(
            _PAIR, Allocation(([0], [1]), [2, g]), PriorityRanking.identity(2), ThresholdList.constant(2, 1)
        ),
    ),
    ("unpick", lambda g: unpick(Allocation(([g], [])), _PAIR, _PAIR)),
    # A responder checks a bag's goods once per bag, not once per query.
    ("TruthfulResponder.value", lambda g: TruthfulResponder(_UNIT_TRIPLE).value(0, Bag([1, g]))),
    ("TruthfulResponder.value-grown", lambda g: TruthfulResponder(_UNIT_TRIPLE).value(0, Bag([1]).add(g))),
]


def _good_cases():
    m = _PAIR.num_goods
    messages = (
        (1.5, "good must be an integer, got 1.5"),
        (True, "good must be an integer, got True"),
        (-1, "good must be >= 0, got -1"),
        (m, f"good must be <= {m - 1}, got {m}"),
    )
    for label, call in _GOOD_INDICES:
        for value, message in messages:
            yield pytest.param(call, value, message, id=f"{label}-good-{value!r}")
    for label, call in (
        ("mms", lambda goods: mms(_PAIR, 0, 2, goods=goods)),
        ("Allocation", lambda goods: Allocation((goods, ()))),
    ):
        yield pytest.param(call, 5, "not a collection of good indices: 5", id=f"{label}-goods-5")


@pytest.mark.parametrize("call, value, message", [*_integer_cases(), *_good_cases()])
def test_every_integer_parameter_is_checked_in_one_wording(call, value, message):
    with pytest.raises(InputError) as exc:
        call(value)
    assert str(exc.value) == message


# Every parameter that takes plain data as a sequence goes through
# core.check_sequence: (label, parameter name, call with the value, what the
# sequence holds).
_SEQUENCES = [
    ("Instance.from_rows", "rows", Instance.from_rows, "rows"),
    ("ThresholdList", "taus", ThresholdList, "rationals"),
    ("PriorityRanking", "rank_of", PriorityRanking, "ranks"),
    ("Allocation", "bundles", Allocation, "good collections"),
    ("Partition", "parts", Partition, "good collections"),
    ("check_targets", "targets", lambda v: verify.check_targets(_PAIR, _PAIR_ALLOCATION, v), "rationals"),
    ("reinstate", "survivors", lambda v: reinstate(_PAIR_ALLOCATION, _PAIR, v), "agent indices"),
]


@pytest.mark.parametrize("name, call, of", [row[1:] for row in _SEQUENCES], ids=[row[0] for row in _SEQUENCES])
def test_every_sequence_parameter_is_checked_in_one_wording(name, call, of):
    # A bare int was a raw TypeError; a string would be read as a sequence of
    # characters, and bytes as a sequence of ints.
    for value, message in (
        (5, "got 5"),
        ("12", "not a string: '12'"),
        (b"12", "not a string: b'12'"),
        (bytearray(b"\x01"), "not a string: bytearray(b'\\x01')"),
    ):
        with pytest.raises(InputError) as exc:
            call(value)
        assert str(exc.value) == f"{name} must be a sequence of {of}, {message}"


def test_only_the_cli_reads_the_valuations_view():
    # Every decision runs on Instance.scaled; the Fraction view is output,
    # which the CLI writes, and the reference checks under tests/ read it.
    found = [
        f"{path}:{node.lineno}"
        for path, tree in _modules().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "valuations" and path != "cli.py"
    ]
    assert found == []


def test_naive_oracle_never_reads_the_integer_kernel():
    # The share references in tests/_reference.py are independent of the
    # oracle: they add, or scale to ints themselves, the Fractions of
    # Instance.valuations, and none of them reads Instance.scaled.
    tree = ast.parse((Path(__file__).parent / "_reference.py").read_text(encoding="utf-8"))
    defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert {"mms_naive", "dp_share"} <= defined
    found = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr == "scaled"]
    assert found == []


def test_the_library_ships_one_share_search():
    # oracle.mms is the library's only share search; the enumerator and its
    # cap live beside the tests, and Instance has no per-good accessor.
    def name(node):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            return node.name
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute):
            return node.attr
        return node.name if isinstance(node, ast.alias) else None

    found = [
        f"{path}:{node.lineno}"
        for path, tree in _modules().items()
        for node in ast.walk(tree)
        if name(node) in ("mms_naive", "NAIVE_GOODS_CAP", "_resolve_goods")
    ]
    assert found == []
    assert "mms_naive" not in mmskit.__all__
    assert not hasattr(Instance, "value")


def test_perfbench_trace_targets_resolve():
    # perfbench/spans.py wraps these names from outside the package; a rename
    # or a changed oracle signature would otherwise break only `--trace 1`.
    spans = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    tree = ast.parse(spans.read_text(encoding="utf-8"))
    (wrapped,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["WRAPPED"]
    ]
    pairs = ast.literal_eval(wrapped)
    assert pairs
    missing = [
        (module, attr)
        for module, attr in pairs
        if not hasattr(importlib.import_module(f"mmskit.{module}"), attr)
    ]
    assert missing == []
    inspect.signature(oracle.mms).bind(None, 0, 1, goods=None, node_budget=None)
    # `install` also subclasses the two responder classes to count queries;
    # the names it only assigns need not exist beforehand.
    (install,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "install"]
    bases = {
        (node.value.id, node.attr)
        for stmt in ast.walk(install) if isinstance(stmt, ast.ClassDef)
        for node in stmt.bases
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
    }
    assert bases == {("rbf", "TruthfulResponder"), ("adversarial", "ScriptedHard2Responder")}
    assert all(inspect.isclass(getattr(importlib.import_module(f"mmskit.{m}"), attr, None)) for m, attr in bases)
    # demonstrate_failure builds the (replaced) hard2 script from its family alone.
    inspect.signature(adversarial.ScriptedHard2Responder).bind(None)
    # The counting subclasses override only `value`; the engine reads the rest
    # of the responder protocol from the classes they extend.
    members = ("num_agents", "num_goods", "unit", "value", "choose_bag")
    instances = [
        rbf.TruthfulResponder(Instance.from_rows([[1]])),
        adversarial.ScriptedHard2Responder(adversarial.gen_hard2_responders(2, 2, 1, 0, 3)),
    ]
    assert [(type(r).__name__, m) for r in instances for m in members if not hasattr(r, m)] == []


_TRACED_OPS = """
import contextlib, io, json, sys
import spans
from mmskit import cli
tracer = spans.Tracer()
spans.install(tracer)
out = {}
for name, argv in (("demo", ["demo", "hard1", "--n", "5", "--i", "3"]), ("mms", ["mms", sys.argv[1], "--d", "2"])):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    op = tracer.finish_op()
    out[name] = [code, op["counts"], sorted(op["layers"])]
print(json.dumps(out))
"""


def test_perfbench_install_runs_traced_ops(tmp_path):
    # Past the names above: a process with perfbench's wrappers in place runs a
    # hard1 demo through the counting responder and a share search through the
    # counting oracle, as a `--trace 1` worker does.
    root = Path(__file__).resolve().parent.parent
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"agents": 2, "goods": 4, "valuations": [[3, 2, 2, 1], [1, 1, 1, 1]]}))
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_OPS, str(inst)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root / "perfbench")])},
        timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout) == {
        "demo": [
            0,
            {"rbf.queries": 60},
            ["adversarial.demonstrate_failure", "cli.main", "rbf.run_rbf", "verify.check_transcript"],
        ],
        "mms": [0, {"oracle.calls": 2}, ["cli.main", "oracle.mms"]],
    }
