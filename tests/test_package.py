"""Rules that hold across the whole package source."""

import ast
import importlib
import inspect
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
    mms_naive,
    oracle,
    priority_thresholds,
    rbf,
    run_1_out_of_d,
    run_ordinal,
    run_rbf,
    run_rbf_truthful,
    sample_allocation,
)
from mmskit.bobw import ln_enclosure
from mmskit.cli import instance_from_json
from mmskit.oracle import MAX_PARTS, mms_all
from mmskit.rbf import reduction_shapes
from mmskit.transform import normalize, pad_agents_to_multiple_of_3, pad_goods, unpick
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


def test_verify_does_not_import_rbf_at_run_time():
    # rbf imports verify to judge each truthful run, so verify may name rbf's
    # types only under TYPE_CHECKING.
    tree = _modules()["verify.py"]
    hidden = {
        id(node)
        for block in ast.walk(tree)
        if isinstance(block, ast.If) and getattr(block.test, "id", None) == "TYPE_CHECKING"
        for node in ast.walk(block)
    }
    found = [
        node.lineno
        for node in ast.walk(tree)
        if id(node) not in hidden and (
            (isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "rbf")
            or (isinstance(node, (ast.Import, ast.ImportFrom)) and any(a.name.split(".")[-1] == "rbf" for a in node.names))
        )
    ]
    assert found == []


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
    ("Instance.value", "agent", lambda v: _PAIR.value(v, 0), 0, 1),
    ("bundle_value", "agent", lambda v: bundle_value(_PAIR, v, ()), 0, 1),
    ("check_witness", "agent", lambda v: check_witness(_UNIT_PAIR, v, Partition(({0, 1}, {2, 3}))), 0, 1),
    ("mms", "agent", lambda v: mms(_PAIR, v, 2), 0, 1),
    ("mms", "d", lambda v: mms(_PAIR, 0, v), 1, MAX_PARTS),
    ("mms", "node_budget", lambda v: mms(_PAIR, 0, 2, node_budget=v), 0, None),
    ("mms_all", "d", lambda v: mms_all(_agents(0), v), 1, MAX_PARTS),
    ("mms_all", "node_budget", lambda v: mms_all(_agents(0), 2, node_budget=v), 0, None),
    ("mms_naive", "agent", lambda v: mms_naive(_PAIR, v, 2), 0, 1),
    ("mms_naive", "d", lambda v: mms_naive(_PAIR, 0, v), 1, MAX_PARTS),
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
    # Known shares skip the oracle, not the checks of d and the budget.
    (
        "check_1_out_of_d-shares", "d",
        lambda v: check_1_out_of_d(_PAIR, _PAIR_ALLOCATION, v, shares=[1, 1]), 1, MAX_PARTS,
    ),
    (
        "check_1_out_of_d-shares", "node_budget",
        lambda v: check_1_out_of_d(_PAIR, _PAIR_ALLOCATION, 2, node_budget=v, shares=[1, 1]), 0, None,
    ),
    (
        "check_t_mms-shares", "node_budget",
        lambda v: check_t_mms(
            _PAIR, _PAIR_ALLOCATION, PriorityRanking.identity(2), ThresholdList.constant(2, 1),
            node_budget=v, shares=[1, 1],
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
    ("priority_thresholds", "n", priority_thresholds, 1, None),
    ("ThresholdList.constant", "n", lambda v: ThresholdList.constant(v, 1), 0, None),
    ("PriorityRanking", "rank", lambda v: PriorityRanking((v, 0)), 0, 1),
    ("PriorityRanking.identity", "n", PriorityRanking.identity, 0, None),
    ("PriorityRanking.rotation", "n", lambda v: PriorityRanking.rotation(v, 1), 0, None),
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
    ("pad_goods", "min_goods", lambda v: pad_goods(_PAIR, v), 0, None),
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
    ("Instance.value", lambda g: _PAIR.value(0, g)),
    ("bundle_value", lambda g: bundle_value(_PAIR, 0, {g})),
    ("mms", lambda g: mms(_PAIR, 0, 2, goods={g})),
    ("mms_naive", lambda g: mms_naive(_PAIR, 0, 2, goods={g})),
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
        ("mms_naive", lambda goods: mms_naive(_PAIR, 0, 2, goods=goods)),
        ("Allocation", lambda goods: Allocation((goods, ()))),
    ):
        yield pytest.param(call, 5, "not a collection of good indices: 5", id=f"{label}-goods-5")


@pytest.mark.parametrize("call, value, message", [*_integer_cases(), *_good_cases()])
def test_every_integer_parameter_is_checked_in_one_wording(call, value, message):
    with pytest.raises(InputError) as exc:
        call(value)
    assert str(exc.value) == message


def test_naive_oracle_never_reads_the_integer_kernel():
    # mms_naive is the independent reference: it adds Fractions, and neither it
    # nor an oracle.py helper it calls reads Instance.scaled.
    functions = {
        node.name: node
        for node in _modules()["oracle.py"].body
        if isinstance(node, ast.FunctionDef)
    }
    todo, reached = ["mms_naive"], set()
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.Name) and node.id in functions:
                todo.append(node.id)
            assert not (isinstance(node, ast.Attribute) and node.attr == "scaled"), (name, node.lineno)
    assert "_resolve_goods" in reached


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
    # `install` also replaces module attributes, among them the responder
    # classes it subclasses to count queries.
    (install,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "install"]
    replaced = {
        (node.value.id, node.attr)
        for stmt in ast.walk(install)
        for node in (
            stmt.bases if isinstance(stmt, ast.ClassDef)
            else stmt.targets if isinstance(stmt, ast.Assign) else ()
        )
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
    }
    responders = {
        ("rbf", "TruthfulResponder"),
        ("adversarial", "TruthfulResponder"),
        ("adversarial", "ScriptedHard2Responder"),
    }
    assert replaced >= responders
    resolved = {
        (module, attr): getattr(importlib.import_module(f"mmskit.{module}"), attr, None)
        for module, attr in replaced
    }
    assert [pair for pair, obj in resolved.items() if obj is None] == []
    assert all(inspect.isclass(resolved[pair]) for pair in responders)
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
