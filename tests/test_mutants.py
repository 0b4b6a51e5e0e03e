"""The committed mutant table in ``tests/mutants.py`` still fits the code: run
``python tests/mutants.py`` to apply each mutant and run its tests."""

import ast

from mutants import MUTANTS, ROOT


def test_each_snippet_occurs_once_in_its_file():
    for mutant in MUTANTS:
        text = (ROOT / mutant.file).read_text(encoding="utf-8")
        assert text.count(mutant.snippet) == 1, mutant.name
        assert mutant.replacement != mutant.snippet, mutant.name


def test_each_listed_test_exists():
    names = [m.name for m in MUTANTS]
    assert len(names) == len(set(names))
    defined = {}
    for mutant in MUTANTS:
        assert bool(mutant.tests) != bool(mutant.reason), mutant.name  # tests, or a reason it is equivalent
        for test in mutant.tests:
            path, _, function = test.partition("::")
            if path not in defined:
                tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
                defined[path] = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
            assert function in defined[path], (mutant.name, test)
