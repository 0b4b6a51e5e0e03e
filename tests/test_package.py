"""Rules that hold across the whole package source."""

import ast
import importlib
import inspect
from pathlib import Path

import mmskit
from mmskit import Instance, adversarial, oracle, rbf


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
    members = ("num_agents", "num_goods", "value", "choose_bag")
    instances = [
        rbf.TruthfulResponder(Instance.from_rows([[1]])),
        adversarial.ScriptedHard2Responder(adversarial.gen_hard2_responders(2, 2, 1, 0, 3)),
    ]
    assert [(type(r).__name__, m) for r in instances for m in members if not hasattr(r, m)] == []
