"""The mutation suite stays applicable: every entry of tests/mutate.py has
an old text that occurs exactly once in its file and names tests that
exist, so a refactor that leaves a mutant stale fails here, without running
the mutants themselves (python tests/mutate.py does that)."""

import ast

import mutate


def _test_functions(path):
    tree = ast.parse((mutate.ROOT / path).read_text(encoding="utf-8"))
    return {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}


def test_every_mutant_applies_exactly_once():
    names = [m[0] for m in mutate.MUTANTS]
    assert len(names) == len(set(names))
    for name, path, old, new, _ in mutate.MUTANTS:
        assert old != new, name
        assert (mutate.ROOT / path).read_text(encoding="utf-8").count(old) == 1, name


def test_every_named_test_exists():
    for name, _, _, _, tests in mutate.MUTANTS:
        assert tests, name
        for test in tests:
            path, _, function = test.partition("::")
            assert function in _test_functions(path), (name, test)
