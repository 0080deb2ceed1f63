"""The mutation catalogue in tests/mutants.py stays applicable.

Replaying the mutants takes a pytest run each, so it stays outside tier-1
(`python tests/mutants.py`).  What can rot silently is checked here instead:
each mutant's snippet must occur exactly once in its file, and each test it
names must still be defined.
"""

import ast

import pytest

from mutants import MUTANTS, ROOT


def test_mutant_names_are_unique():
    names = [m.name for m in MUTANTS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutant_applies_once_and_names_defined_tests(mutant):
    assert (ROOT / mutant.file).read_text(encoding="utf-8").count(mutant.old) == 1
    assert mutant.new != mutant.old
    assert mutant.tests
    for test_id in mutant.tests:
        path, _, name = test_id.partition("::")
        tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
        defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
        assert name in defined, test_id
